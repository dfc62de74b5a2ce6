import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topzeta.analysis import (
    CyclotomicRF,
    EigenvalueSet,
    Prediction,
    acampo_zeta,
    candidate_bfunction_roots,
    check_conjecture2,
    check_conjecture3,
    check_conjecture4,
    max_order_pole_report,
    monodromy_eigenvalues_germ,
    predicted_bfunction_divisor,
)
from topzeta.cli import analyze_poly, analyze_rd
from topzeta.curve_resolution import resolve_curve_germ
from topzeta.errors import TheoremViolation
from topzeta.polynomial import parse_poly
from topzeta.toric_curve import toric_resolution_data
from topzeta.zeta_core import (
    Component,
    PoleTable,
    RationalFunction,
    ResolutionData,
    Stratum,
    lct_global,
    lct_local,
    monomial_resolution_data,
    poles,
    zeta_global,
    zeta_local,
)


def P(text):
    return parse_poly(text, ["x", "y"])


def cusp_rd():
    return resolve_curve_germ(P("x^2 + y^3"))


def F(a, b=1):
    return Fraction(a, b)


# -- max_order_pole_report ------------------------------------------------------

def test_report_order_n_pole_N2():
    rd = monomial_resolution_data(3, 2)
    pt = poles(zeta_local(rd), rd)
    pred = max_order_pole_report(pt, rd, isolated="yes")
    assert pred.s0 == F(-1, 2) and pred.N == 2
    assert pred.divisor_roots == ((F(-1, 2), 3), (F(-1), 3))
    assert pred.grw_eigenvalues == (F(1, 2), F(1))


def test_report_order_n_pole_N1():
    rd = monomial_resolution_data(2, 1)
    pt = poles(zeta_local(rd), rd)
    pred = max_order_pole_report(pt, rd, isolated="yes")
    assert pred.s0 == F(-1) and pred.N == 1
    assert pred.divisor_roots == ((F(-1), 2),)
    assert pred.grw_eigenvalues == (F(1),)


def test_report_no_max_order_pole():
    rd = cusp_rd()
    pt = poles(zeta_local(rd), rd)
    pred = max_order_pole_report(pt, rd, isolated="yes")
    assert pred.s0 is None and pred.N is None
    assert pred.divisor_roots == () and pred.grw_eigenvalues == ()
    assert not pred.has_max_order_pole()


def test_report_withholds_divisor_without_isolatedness():
    rd = monomial_resolution_data(3, 2)
    pt = poles(zeta_local(rd), rd)
    pred = max_order_pole_report(pt, rd, isolated="unknown")
    assert pred.s0 == F(-1, 2)
    assert pred.divisor_roots == ()
    assert pred.grw_eigenvalues == (F(1, 2), F(1))


def test_report_theorem_violation_not_minus_one_over_N():
    # synthetic data: two components with nu/N = 2/3 meeting in a point gives
    # an order-2 pole at -2/3, which no actual zeta function can have
    comps = (Component("E1", 3, 2), Component("E2", 6, 4))
    strata = (Stratum(frozenset({"E1", "E2"}), 1, 1),)
    rd = ResolutionData(2, comps, strata)
    pt = poles(zeta_local(rd), rd)
    assert [(p.location, p.order) for p in pt] == [(F(-2, 3), 2)]
    with pytest.raises(TheoremViolation):
        max_order_pole_report(pt, rd)


def test_report_theorem_violation_two_max_poles():
    pt = PoleTable([(F(-1, 2), 2), (F(-1), 2)])
    rd = monomial_resolution_data(2, 2)
    with pytest.raises(TheoremViolation):
        max_order_pole_report(pt, rd)


def test_prediction_invariants():
    with pytest.raises(TheoremViolation):
        Prediction(n=2, lct=F(1, 2), isolated="yes", s0=F(-2, 3), N=3)
    with pytest.raises(ValueError):
        Prediction(n=2, lct=F(1, 2), isolated="no", divisor_roots=((F(-1), 2),))


# -- predicted divisor ------------------------------------------------------------

def test_divisor_examples():
    assert predicted_bfunction_divisor(2, 1) == ((F(-1), 2),)
    assert predicted_bfunction_divisor(2, 3) == (
        (F(-1, 3), 2), (F(-2, 3), 2), (F(-1), 2)
    )
    for n, N in [(2, 2), (3, 4), (5, 6)]:
        div = predicted_bfunction_divisor(n, N)
        assert sum(mult for _, mult in div) == n * N
        assert [r for r, _ in div] == [F(-j, N) for j in range(1, N + 1)]


def test_divisor_roots_are_candidates():
    # every predicted root lies in the candidate set -(nu+k)/N of the data
    for n, N in [(2, 1), (2, 2), (3, 2), (4, 3)]:
        rd = monomial_resolution_data(n, N)
        pred = max_order_pole_report(
            poles(zeta_local(rd), rd), rd, isolated="yes"
        )
        candidates = set(
            candidate_bfunction_roots(rd, (F(-n - 1), F(0)))
        )
        for root, mult in pred.divisor_roots:
            assert root in candidates and mult == n


# -- candidate roots ---------------------------------------------------------------

def test_candidates_cusp():
    rd = cusp_rd()
    got = candidate_bfunction_roots(rd, (F(-2), F(0)))
    assert got == [
        F(-5, 6), F(-1), F(-7, 6), F(-4, 3), F(-3, 2), F(-5, 3), F(-11, 6)
    ]


def test_candidates_smooth():
    rd = ResolutionData(
        2, (Component("B1", 1, 1),), (Stratum(frozenset({"B1"}), 1, 1),)
    )
    assert candidate_bfunction_roots(rd, (F(-3, 2), F(0))) == [F(-1)]


def test_candidates_monomial():
    for n, N in [(2, 3), (3, 4)]:
        rd = monomial_resolution_data(n, N)
        got = candidate_bfunction_roots(rd, (F(-1) - F(1, N), F(0)))
        assert got == [F(-j, N) for j in range(1, N + 1)]


def test_candidates_window_validation():
    with pytest.raises(ValueError):
        candidate_bfunction_roots(cusp_rd(), (F(0), F(-1)))


# -- A'Campo zeta -------------------------------------------------------------------

def test_acampo_cusp():
    zeta = acampo_zeta(cusp_rd())
    assert zeta.factors == ((2, -1), (3, -1), (6, 1))
    assert str(zeta) == "(1 - t^2)^-1 * (1 - t^3)^-1 * (1 - t^6)^1"


def test_acampo_node_trivial():
    zeta = acampo_zeta(resolve_curve_germ(P("x*y")))
    assert zeta.factors == ()
    assert str(zeta) == "1"


def test_acampo_smooth():
    rd = resolve_curve_germ(P("x + y^2"))
    assert acampo_zeta(rd).factors == ((1, -1),)


def test_acampo_degree_identity():
    # sum m*e = - sum N_i chi(E_i° over 0): chi of the Milnor fibre with sign
    for text in ["x^2 + y^3", "x*y", "x^3 + y^3", "x^2 + y^5", "x^4 + y^4"]:
        rd = resolve_curve_germ(P(text))
        chi = {next(iter(st.ids)): st.chi_origin for st in rd.strata if len(st.ids) == 1}
        expected = -sum(c.N * chi.get(c.id, 0) for c in rd.components)
        assert acampo_zeta(rd).degree_sum() == expected


def test_cyclotomic_validation():
    with pytest.raises(ValueError):
        CyclotomicRF(((2, 0),))
    with pytest.raises(ValueError):
        CyclotomicRF(((2, 1), (2, -1)))


# -- eigenvalues ---------------------------------------------------------------------

def test_eigenvalues_cusp():
    rd = cusp_rd()
    ev = monodromy_eigenvalues_germ(rd)
    assert set(ev.sorted()) == {
        F(0), F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(5, 6)
    }


def test_eigenvalues_node():
    ev = monodromy_eigenvalues_germ(resolve_curve_germ(P("x*y")))
    assert set(ev.sorted()) == {F(0)}


def test_eigenvalues_monomial():
    rd = monomial_resolution_data(3, 4)
    ev = monodromy_eigenvalues_germ(rd)
    assert set(ev.sorted()) == {F(k, 4) for k in range(4)}


def test_eigenvalue_orders_and_provenance_cusp():
    ev = monodromy_eigenvalues_germ(cusp_rd())
    assert ev.orders == {1, 2, 3, 6}
    # one line per order with its first reason, in the order the sources are
    # met: the monodromy zeta factors, the branches, then H^0
    assert ev.provenance == (
        (2, "order-2 factor of the monodromy zeta function"),
        (3, "order-3 factor of the monodromy zeta function"),
        (6, "order-6 factor of the monodromy zeta function"),
        (1, "nearby points of a multiplicity-1 branch"),
    )
    ev = monodromy_eigenvalues_germ(
        resolve_curve_germ(P("x^2*y"), allow_nonreduced=True)
    )
    assert ev.provenance == (
        (1, "nearby points of a multiplicity-1 branch"),
        (2, "nearby points of a multiplicity-2 branch"),
    )


def _reference_eigenvalues(orders):
    """The set of exponents as the fractions k/m, one per root of unity."""
    return sorted({F(k, m) for m in orders for k in range(m)})


def _reference_orders(rd):
    return (
        [m for m, _ in acampo_zeta(rd).factors] + rd.branch_multiplicities() + [1]
    )


@settings(max_examples=60, deadline=None)
@given(
    orders=st.frozensets(st.integers(1, 360), min_size=1, max_size=5),
    data=st.data(),
)
def test_pairs_match_sorted_fractions(orders, data):
    ev = EigenvalueSet(orders, tuple((m, "drawn") for m in sorted(orders)))
    reference = _reference_eigenvalues(orders)
    assert ev.pairs() == [(q.numerator, q.denominator) for q in reference]
    assert ev.sorted() == reference
    members = set(reference)
    q = data.draw(
        st.one_of(
            st.fractions(min_value=-3, max_value=3, max_denominator=720),
            st.integers(-3, 3).map(F),
            st.sampled_from(reference).flatmap(
                lambda r: st.integers(-3, 3).map(lambda n: r + n)
            ),
        )
    )
    assert (q in ev) == (q % 1 in members)


@pytest.mark.parametrize(
    "text",
    ["x*y", "x^2 + y^3", "x^4 + y^6", "x^5 + y^7", "x^4 + y^4 + x*y^3",
     "(x^2 + y^3)*(x^3 + y^2)", "(y^2 - x^3)*(y^2 - 2*x^3)", "x^4 - 2*y^4"],
)
def test_germ_eigenvalues_match_fraction_reference(text):
    for rd in (resolve_curve_germ(P(text)), toric_resolution_data(P(text))):
        ev = monodromy_eigenvalues_germ(rd)
        orders = _reference_orders(rd)
        assert ev.orders == set(orders)
        assert [m for m, _ in ev.provenance] == list(dict.fromkeys(orders))
        assert ev.sorted() == _reference_eigenvalues(orders)


def test_large_brieskorn_eigenvalues_are_fast():
    # 5917 = 61 * 97 roots of unity; listing them one Fraction each took
    # longer than resolving the germ
    ev = monodromy_eigenvalues_germ(resolve_curve_germ(P("x^61 + y^97")))
    pairs = ev.pairs()
    assert len(pairs) == 5917
    assert pairs[:2] == [(0, 1), (1, 5917)] and pairs[-1] == (5916, 5917)
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        analyze_poly("x^61+y^97", "both")
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.05


def test_eigenvalue_membership_mod_one():
    ev = monodromy_eigenvalues_germ(cusp_rd())
    assert F(-5, 6) in ev          # exp(-2 pi i 5/6) = exp(2 pi i /6)
    assert F(-1) in ev
    assert F(-2, 7) not in ev


# -- conjecture 3 -----------------------------------------------------------------------

def test_conjecture3_cusp_certified():
    rd = cusp_rd()
    pt = poles(zeta_local(rd), rd)
    report = check_conjecture3(pt, monodromy_eigenvalues_germ(rd))
    assert report.results == (
        (F(-5, 6), "certified"), (F(-1), "certified")
    )
    assert report.all_certified()


def test_conjecture3_node():
    rd = resolve_curve_germ(P("x*y"))
    pt = poles(zeta_local(rd), rd)
    report = check_conjecture3(pt, monodromy_eigenvalues_germ(rd))
    assert report.results == ((F(-1), "certified"),)


def test_conjecture3_inconclusive_is_not_violation():
    pt = PoleTable([(F(-2, 7), 1)])
    ev = monodromy_eigenvalues_germ(cusp_rd())
    report = check_conjecture3(pt, ev)
    assert report.results == ((F(-2, 7), "inconclusive"),)


def test_conjecture3_monotone_under_enlargement():
    rd = cusp_rd()
    pt = poles(zeta_local(rd), rd)
    small = monodromy_eigenvalues_germ(rd)
    enlarged = EigenvalueSet(
        small.orders | {7, 11},
        small.provenance + ((7, "added"), (11, "added")),
    )
    before = check_conjecture3(pt, small).results
    after = check_conjecture3(pt, enlarged).results
    for (_, s_before), (_, s_after) in zip(before, after):
        if s_before == "certified":
            assert s_after == "certified"


# -- conjecture 4 -----------------------------------------------------------------------

def test_conjecture4_pass():
    rd = monomial_resolution_data(2, 2)
    pt = poles(zeta_local(rd), rd)
    report = check_conjecture4(pt, 2, F(1, 2))
    assert report.passed() and report.equals_minus_lct is True


def test_conjecture4_vacuous():
    rd = cusp_rd()
    pt = poles(zeta_local(rd), rd)
    report = check_conjecture4(pt, 2, F(5, 6))
    assert report.passed() and report.equals_minus_lct is None


def test_conjecture4_detects_violation():
    pt = PoleTable([(F(-1, 2), 2), (F(-1), 2)])
    report = check_conjecture4(pt, 2, F(1, 2))
    assert not report.at_most_one
    assert not report.passed()


# -- conjecture 2 -----------------------------------------------------------------------

def test_conjecture2_cusp():
    rd = cusp_rd()
    z = zeta_local(rd)
    b_roots = [(F(-5, 6), 1), (F(-1), 1), (F(-7, 6), 1)]
    assert check_conjecture2(z, b_roots) is True


def test_conjecture2_violation():
    z = RationalFunction((1,), (1, 2, 1))   # 1/(1+s)^2
    assert check_conjecture2(z, [(F(-1), 1)]) is False
    assert check_conjecture2(z, [(F(-1), 2)]) is True


def test_conjecture2_constant():
    z = RationalFunction.constant(5)
    assert check_conjecture2(z, []) is True


def test_global_max_order_prediction_notes():
    # global data with an order-n pole: the divisor claim concerns the
    # polynomial's b-function, the lcm of the local ones
    comps = (Component("E1", 3, 1), Component("E2", 3, 1))
    strata = (Stratum(frozenset({"E1", "E2"}), 1, 0),)
    rd = ResolutionData(2, comps, strata, scope="global")
    z = zeta_global(rd)
    assert z == RationalFunction((1,), (1, 6, 9))
    pt = poles(z, rd)
    pred = max_order_pole_report(pt, rd, isolated="yes")
    assert pred.s0 == F(-1, 3) and pred.N == 3 and pred.lct == lct_global(rd)
    assert pred.divisor_roots == ((F(-1, 3), 2), (F(-2, 3), 2), (F(-1), 2))
    assert any("lcm of the local" in note for note in pred.notes)


def test_global_report_takes_the_global_threshold():
    # the order-2 pole -1/3 comes from components off the origin fibre: it is
    # minus the global threshold 1/3, while the local threshold is 1
    comps = (
        Component("E1", 3, 1, False),
        Component("E2", 3, 1, False),
        Component("E3", 1, 1, True),
    )
    strata = (Stratum(frozenset({"E1", "E2"}), 1, 0), Stratum(frozenset({"E3"}), 1, 1))
    rd = ResolutionData(2, comps, strata, scope="global")
    assert lct_local(rd) == 1 and lct_global(rd) == F(1, 3)
    pt = poles(zeta_global(rd), rd)
    pred = max_order_pole_report(pt, rd)
    assert pred.s0 == F(-1, 3) and pred.N == 3 and pred.lct == F(1, 3)
    assert any("lcm of the local" in note for note in pred.notes)
    res = analyze_rd(rd, "unknown")
    assert res["lct"] == F(1, 3) and res["prediction"].s0 == F(-1, 3)
