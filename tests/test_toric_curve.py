from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topzeta.curve_resolution import resolve_curve_germ
from topzeta.errors import Degenerate
from topzeta.polynomial import newton_polygon_local, parse_poly
from topzeta.toric_curve import (
    Fan2D,
    Ray,
    dual_fan,
    toric_resolution_data,
    unimodular_subdivide,
)
from topzeta.zeta_core import RationalFunction, lct_local, zeta_local


def P(text):
    return parse_poly(text, ["x", "y"])


def fan_of(text):
    return dual_fan(newton_polygon_local(P(text)))


# -- dual fan -------------------------------------------------------------------

def test_dual_fan_cusp():
    fan = fan_of("x^2 + y^3")
    assert [r.vector for r in fan.rays] == [(1, 0), (3, 2), (0, 1)]
    assert [r.N for r in fan.rays] == [0, 6, 0]
    assert [r.sigma for r in fan.rays] == [1, 5, 1]


def test_dual_fan_node():
    fan = fan_of("x*y")
    assert [r.vector for r in fan.rays] == [(1, 0), (0, 1)]
    assert [r.N for r in fan.rays] == [1, 1]


def test_dual_fan_conic():
    fan = fan_of("x^2 + x*y + y^2")
    assert [(r.vector, r.N, r.sigma) for r in fan.rays] == [
        ((1, 0), 0, 1), ((1, 1), 2, 2), ((0, 1), 0, 1)
    ]


def test_dual_fan_two_segments_ordered():
    fan = fan_of("(x^2 + y^3)*(x^3 + y^2)")
    assert [r.vector for r in fan.rays] == [(1, 0), (3, 2), (2, 3), (0, 1)]
    assert [r.N for r in fan.rays] == [0, 10, 10, 0]


# -- subdivision ------------------------------------------------------------------

def test_subdivide_cusp():
    fan = unimodular_subdivide(fan_of("x^2 + y^3"))
    assert [r.vector for r in fan.rays] == [(1, 0), (2, 1), (3, 2), (1, 1), (0, 1)]
    assert [(r.vector, r.N, r.sigma) for r in fan.rays if not r.original] == [
        ((2, 1), 3, 3), ((1, 1), 2, 2)
    ]
    assert fan.is_unimodular()


def test_subdivide_node_unchanged():
    fan = unimodular_subdivide(fan_of("x*y"))
    assert [r.vector for r in fan.rays] == [(1, 0), (0, 1)]


def test_subdivide_minimal_chain():
    # cone((1,0),(1,3)) needs exactly (1,1), (1,2)
    rays = (
        Ray((1, 0), 0, 1, True),
        Ray((1, 3), 3, 4, True),
        Ray((0, 1), 0, 1, True),
    )
    fan = Fan2D(rays, ((3, 0), (0, 1)))
    # vertices chosen so N evaluates consistently: not used in this check
    out = unimodular_subdivide(Fan2D((rays[0], rays[2]), ((0, 0),)))
    assert [r.vector for r in out.rays] == [(1, 0), (0, 1)]


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda p: sum(p) > 0),
    min_size=1, max_size=5,
))
def test_subdivision_always_unimodular(support):
    terms = {tuple(p): 1 for p in support}
    f = P(" + ".join(f"x^{i}*y^{j}" for i, j in terms))
    fan = unimodular_subdivide(dual_fan(newton_polygon_local(f)))
    assert fan.is_unimodular()
    # rays primitive and strictly angle-ordered
    vectors = [r.vector for r in fan.rays]
    assert vectors[0] == (1, 0) and vectors[-1] == (0, 1)
    for (a1, a2), (b1, b2) in zip(vectors, vectors[1:]):
        assert gcd(a1, a2) == 1 and a1 * b2 - a2 * b1 >= 1


# -- resolution data ----------------------------------------------------------------

def test_toric_cusp_matches_blowup():
    f = P("x^2 + y^3")
    rd = toric_resolution_data(f)
    assert zeta_local(rd) == RationalFunction((5, 4), (5, 11, 6))
    assert lct_local(rd) == Fraction(5, 6)
    assert {(c.N, c.nu) for c in rd.components} == {(3, 3), (6, 5), (2, 2), (1, 1)}


def test_toric_node_axes():
    rd = toric_resolution_data(P("x*y"))
    assert {c.id: (c.N, c.nu) for c in rd.components} == {
        "Ax": (1, 1), "Ay": (1, 1)
    }
    assert zeta_local(rd) == RationalFunction((1,), (1, 2, 1))


def test_toric_x3_plus_y3():
    rd = toric_resolution_data(P("x^3 + y^3"))
    assert zeta_local(rd) == RationalFunction((2, -1), (2, 5, 3))


def test_toric_rejects_degenerate():
    with pytest.raises(Degenerate):
        toric_resolution_data(P("x^2 + 2*x*y + y^2"))


def test_toric_monomial_closed_form():
    # x^a y^b resolves identically: Z = 1/((1+as)(1+bs))
    for a, b in [(1, 1), (2, 3), (4, 1)]:
        rd = toric_resolution_data(P(f"x^{a}*y^{b}"))
        expect = RationalFunction((1,), (1, a)) * RationalFunction((1,), (1, b))
        assert zeta_local(rd) == expect
    # one axis only
    rd = toric_resolution_data(P("x^3"))
    assert zeta_local(rd) == RationalFunction((1,), (1, 3))


def test_toric_smooth_germ():
    rd = toric_resolution_data(P("x + y"))
    assert zeta_local(rd) == RationalFunction((1,), (1, 1))
    assert lct_local(rd) == 1


def test_toric_axis_with_branch():
    # x*(x+y): axis component plus one branch on the (1,1) divisor
    rd = toric_resolution_data(P("x^2 + x*y"))
    assert zeta_local(rd) == RationalFunction((1,), (1, 2, 1))


PIPELINE_PAIRS = [
    "x^2 + y^3", "x*y", "x^3 + y^3", "x^2 + y^4", "x^2 + y^5", "x^3 + y^4",
    "x^3 + y^5", "x^4 + y^4", "x^4 + y^5", "x^5 + y^5", "x^2 + y^7",
    "x^5 + y^7", "x^6 + y^7", "x^7 + y^7", "y^2 - x^2", "y^2 - 2*x^2",
    "x^3 + y^3 + x*y^2", "(x^2 + y^3)*(x^3 + y^2)", "x^2*y", "x^2*y^3",
    "x^4 - 2*y^4", "x + y^2",
]


@pytest.mark.parametrize("text", PIPELINE_PAIRS)
def test_pipeline_equivalence(text):
    f = P(text)
    rd_toric = toric_resolution_data(f)
    rd_blowup = resolve_curve_germ(f, allow_nonreduced=True)
    assert zeta_local(rd_toric) == zeta_local(rd_blowup), text
    assert lct_local(rd_toric) == lct_local(rd_blowup), text


def test_toric_euler_additivity():
    for text in PIPELINE_PAIRS:
        rd = toric_resolution_data(P(text))
        for comp in rd.components:
            if not comp.id.startswith("E"):
                continue
            total = sum(st.chi_total for st in rd.strata if comp.id in st.ids)
            assert total == 2, (text, comp.id)


def test_published_monodromy_oracle():
    # y^7 + x^2 y^5 + x^5 y^3 = y^3 (y^4 + x^2 y^2 + x^5): the literature
    # records monodromy zeta factors of orders 7 and 19 for this germ (up to
    # the reciprocal convention) -- a third-party anchor for the N values
    from topzeta.analysis import acampo_zeta

    f = P("y^7 + x^2*y^5 + x^5*y^3")
    rd_toric = toric_resolution_data(f)
    rd_blowup = resolve_curve_germ(f, allow_nonreduced=True)
    assert zeta_local(rd_toric) == zeta_local(rd_blowup)
    assert acampo_zeta(rd_toric).factors == ((7, 1), (19, 1))
    assert acampo_zeta(rd_blowup).factors == ((7, 1), (19, 1))
    Ns = sorted((c.N, c.nu) for c in rd_toric.components)
    assert (19, 5) in Ns and (7, 2) in Ns and (11, 3) in Ns and (3, 1) in Ns


@st.composite
def random_germs(draw):
    n_terms = draw(st.integers(1, 5))
    terms = {}
    for _ in range(n_terms):
        e = (draw(st.integers(0, 5)), draw(st.integers(0, 5)))
        if e == (0, 0):
            continue
        terms[e] = draw(st.integers(-4, 4))
    return terms


@settings(max_examples=50, deadline=None)
@given(random_germs())
def test_random_germ_pipeline_equivalence(terms):
    from topzeta.errors import IrrationalCenter
    from topzeta.polynomial import Poly, is_nondegenerate_curve

    f = Poly(terms)
    if f.is_zero() or f.constant_term() != 0:
        return
    if not is_nondegenerate_curve(f):
        return
    rd_toric = toric_resolution_data(f)
    try:
        rd_blowup = resolve_curve_germ(f, allow_nonreduced=True)
    except IrrationalCenter:
        # legitimate blowup-pipeline refusal; the toric result stands alone
        return
    assert zeta_local(rd_toric) == zeta_local(rd_blowup), f.to_text()
    assert lct_local(rd_toric) == lct_local(rd_blowup), f.to_text()
