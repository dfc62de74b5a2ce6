import json
from fractions import Fraction
from pathlib import Path

import pytest

from topzeta.cli import corpus_path_default
from topzeta.curve_resolution import (
    NotReduced,
    blowup_step,
    euler_strata,
    initial_state,
    resolution_data,
    resolve_curve_germ,
    resolve_curve_state,
)
from topzeta.errors import IrrationalCenter, NonVanishingAtOrigin, UnresolvedState
from topzeta.polynomial import is_nondegenerate_curve, parse_poly
from topzeta.toric_curve import toric_resolution_data
from topzeta.zeta_core import RationalFunction, lct_local, poles, zeta_local


def P(text):
    return parse_poly(text, ["x", "y"])


def comp_map(rd):
    return {c.id: (c.N, c.nu) for c in rd.components}


def chi_origin(rd, ids):
    for st in rd.strata:
        if st.ids == frozenset(ids):
            return st.chi_origin
    return 0


# -- the cusp: the classical three-step resolution ----------------------------

def test_cusp_history_and_components():
    state = resolve_curve_state(P("x^2 + y^3"))
    assert state.numerical_history() == [(2, 2), (3, 3), (6, 5)]
    rd = resolution_data(state)
    cm = comp_map(rd)
    assert cm == {"E1": (2, 2), "E2": (3, 3), "E3": (6, 5), "B1": (1, 1)}
    # E3 meets the other three; those are pairwise disjoint
    pairs = {frozenset(st.ids) for st in rd.strata if len(st.ids) == 2}
    assert pairs == {
        frozenset({"E1", "E3"}),
        frozenset({"E2", "E3"}),
        frozenset({"B1", "E3"}),
    }


def test_cusp_euler_characteristics():
    rd = resolve_curve_germ(P("x^2 + y^3"))
    assert chi_origin(rd, {"E3"}) == -1
    assert chi_origin(rd, {"E1"}) == 1
    assert chi_origin(rd, {"E2"}) == 1
    assert chi_origin(rd, {"B1"}) == 0
    for pair in [{"E1", "E3"}, {"E2", "E3"}, {"B1", "E3"}]:
        assert chi_origin(rd, pair) == 1


def test_cusp_zeta_and_lct():
    rd = resolve_curve_germ(P("x^2 + y^3"))
    z = zeta_local(rd)
    assert z == RationalFunction((5, 4), (5, 11, 6))
    assert lct_local(rd) == Fraction(5, 6)
    pt = poles(z, rd)
    assert [(p.location, p.order) for p in pt] == [
        (Fraction(-5, 6), 1), (Fraction(-1), 1)
    ]


def test_cusp_recursion_invariants():
    state = resolve_curve_state(P("x^2 + y^3"))
    by_id = {c.id: c for c in state.components}
    for step in state.history:
        assert step.N == step.multiplicity + sum(by_id[p].N for p in step.parents)
        assert step.nu == 2 + sum(by_id[p].nu - 1 for p in step.parents)
    # third blowup sits on E1 and E2: N = 1 + 2 + 3, nu = 2 + 1 + 2
    last = state.history[-1]
    assert set(last.parents) == {"E1", "E2"} and last.multiplicity == 1


# -- nodes and smooth germs ----------------------------------------------------

def test_node_xy():
    state = resolve_curve_state(P("x*y"))
    assert state.numerical_history() == [(2, 2)]
    rd = resolution_data(state)
    cm = comp_map(rd)
    assert cm == {"E1": (2, 2), "B1": (1, 1), "B2": (1, 1)}
    assert chi_origin(rd, {"E1"}) == 0
    assert chi_origin(rd, {"E1", "B1"}) == 1
    assert chi_origin(rd, {"E1", "B2"}) == 1
    assert zeta_local(rd) == RationalFunction((1,), (1, 2, 1))


def test_node_y2_minus_x2():
    # strict transform restricted to the exceptional line is t^2 - 1
    rd = resolve_curve_germ(P("y^2 - x^2"))
    assert comp_map(rd) == {"E1": (2, 2), "B1": (1, 1), "B2": (1, 1)}
    assert zeta_local(rd) == zeta_local(resolve_curve_germ(P("x*y")))


def test_irrational_node_is_one_orbit():
    rd = resolve_curve_germ(P("y^2 - 2*x^2"))
    assert comp_map(rd) == {"E1": (2, 2), "B1": (1, 1)}
    # one branch orbit of degree 2
    assert chi_origin(rd, {"E1", "B1"}) == 2
    assert chi_origin(rd, {"E1"}) == 0
    assert zeta_local(rd) == RationalFunction((1,), (1, 2, 1))


def test_smooth_germ_identity_resolution():
    for text in ["x", "x + y", "x + y^2"]:
        state = resolve_curve_state(P(text))
        assert not state.history and state.numerical_history() == []
        rd = resolution_data(state)
        assert comp_map(rd) == {"B1": (1, 1)}
        assert chi_origin(rd, {"B1"}) == 1
        assert zeta_local(rd) == RationalFunction((1,), (1, 1))
        assert lct_local(rd) == 1


# -- ordinary m-fold points ------------------------------------------------------

def test_x3_plus_y3():
    rd = resolve_curve_germ(P("x^3 + y^3"))
    cm = comp_map(rd)
    assert cm["E1"] == (3, 2)
    # one rational branch and one conjugate pair
    branch_degrees = sorted(
        st.chi_origin for st in rd.strata if len(st.ids) == 2
    )
    assert branch_degrees == [1, 2]
    assert chi_origin(rd, {"E1"}) == -1
    assert zeta_local(rd) == RationalFunction((2, -1), (2, 5, 3))


def test_ordinary_point_irreducible_tangent_cone():
    rd = resolve_curve_germ(P("x^3 + y^3 + x*y^2"))
    # tangent cone has an irreducible cubic direction polynomial: one orbit
    assert comp_map(rd)["E1"] == (3, 2)
    assert chi_origin(rd, {"E1"}) == -1
    assert zeta_local(rd) == RationalFunction((2, -1), (2, 5, 3))


# -- tangencies ------------------------------------------------------------------

def test_a3_tacnode_chain():
    state = resolve_curve_state(P("x^2 + y^4"))
    assert state.numerical_history() == [(2, 2), (4, 3)]
    rd = resolution_data(state)
    assert chi_origin(rd, {"E1"}) == 1
    assert chi_origin(rd, {"E2"}) == -1
    assert chi_origin(rd, {"E1", "E2"}) == 1
    # conjugate branch pair on E2
    assert zeta_local(rd) == RationalFunction((3, 1), (3, 7, 4))
    assert lct_local(rd) == Fraction(3, 4)


def test_higher_tangency_y2_x5():
    # A4: x^2 + y^5
    state = resolve_curve_state(P("x^2 + y^5"))
    assert state.numerical_history() == [(2, 2), (4, 3), (5, 4), (10, 7)]
    rd = resolution_data(state)
    assert lct_local(rd) == Fraction(7, 10)


# -- non-reduced germs ------------------------------------------------------------

def test_nonreduced_requires_flag():
    with pytest.raises(NotReduced):
        resolve_curve_germ(P("x^2*y"))


def test_nonreduced_x2y():
    rd = resolve_curve_germ(P("x^2*y"), allow_nonreduced=True)
    cm = comp_map(rd)
    assert cm["E1"] == (3, 2)
    assert sorted(v for k, v in cm.items() if k.startswith("B")) == [(1, 1), (2, 1)]
    assert zeta_local(rd) == RationalFunction((1,), (1, 3, 2))
    assert lct_local(rd) == Fraction(1, 2)


def test_nonreduced_already_normal_crossings():
    # x^2 y^2 is a double node: one blowup, branch multiplicities 2 and 2
    rd = resolve_curve_germ(P("x^2*y^2"), allow_nonreduced=True)
    cm = comp_map(rd)
    assert cm["E1"] == (4, 2)
    assert sorted(v for k, v in cm.items() if k.startswith("B")) == [(2, 1), (2, 1)]
    assert zeta_local(rd) == RationalFunction((1,), (1, 4, 4))


def test_nonreduced_tangent_square():
    rd = resolve_curve_germ(P("x*(x+y)^2"), allow_nonreduced=True)
    z = zeta_local(rd)
    # reduced part is a node; the squared branch drives lct down
    assert lct_local(rd) == Fraction(1, 2)
    candidates = set(rd.candidate_pole_locations())
    for p in poles(z, rd):
        assert p.location in candidates


# -- errors and guards -------------------------------------------------------------

def test_requires_vanishing():
    with pytest.raises(NonVanishingAtOrigin):
        resolve_curve_germ(P("1 + x"))


def test_irrational_center_aborts():
    # (y^2 - 2x^2)^2 - x^5 needs a blowup at an orbit of degree 2
    f = P("y^4 - 4*x^2*y^2 + 4*x^4 - x^5")
    with pytest.raises(IrrationalCenter):
        resolve_curve_germ(f)


def test_unresolved_state_guard():
    state = initial_state(P("x^2 + y^3"))
    with pytest.raises(UnresolvedState):
        euler_strata(state)


def test_blowup_step_is_stepwise():
    state = initial_state(P("x*y"))
    assert len(state.pending_centers) == 1
    state = blowup_step(state, state.pending_centers[0])
    assert state.is_resolved()
    assert state.numerical_history() == [(2, 2)]


# -- structural invariants -----------------------------------------------------------

GERMS = [
    "x^2 + y^3", "x*y", "y^2 - x^2", "x^3 + y^3", "x^2 + y^4", "x^2 + y^5",
    "x^3 + y^4", "x^3 + y^5", "x^4 + y^4", "x^5 + y^5", "x^2 + y^7",
    "x^3 + y^3 + x*y^2", "y^2 - 2*x^2", "x^4 - 2*y^4",
    "(x^2 + y^3)*(x^3 + y^2)", "x*(x+y)*(x-y)",
]


def assert_chi_additive(rd, orbit, text):
    """Each exceptional curve is rational, so chi_total over its strata sums
    to 2; a branch orbit is ``orbit[id]`` disks, so its own chi_total plus its
    incidence degrees is its orbit degree."""
    for comp in rd.components:
        total = sum(st.chi_total for st in rd.strata if comp.id in st.ids)
        assert total == orbit.get(comp.id, 2), f"additivity fails for {comp.id} of {text}"


@pytest.mark.parametrize("text", GERMS)
def test_additivity_and_recursions(text):
    state = resolve_curve_state(P(text))
    rd = resolution_data(state)
    orbit = dict(state.branches)
    assert_chi_additive(rd, orbit, text)
    # the toric pipeline builds its strata with the same helper; check it too
    if is_nondegenerate_curve(P(text)):
        toric = toric_resolution_data(P(text))
        orbit = {}
        for b in toric.branch_ids:
            if b in ("Ax", "Ay"):
                orbit[b] = 1
            else:
                # a face branch orbit meets its host divisor in one orbit
                (orbit[b],) = [
                    st.chi_total for st in toric.strata if b in st.ids and len(st.ids) == 2
                ]
        assert_chi_additive(toric, orbit, text)
    # recursion invariants hold at every step
    by_id = {c.id: c for c in state.components}
    for step in state.history:
        assert step.N == step.multiplicity + sum(by_id[p].N for p in step.parents)
        assert step.nu == 2 + sum(by_id[p].nu - 1 for p in step.parents)
    # at most double points
    for st in rd.strata:
        assert len(st.ids) <= 2


@pytest.mark.parametrize("a,b", [(2, 3), (2, 5), (3, 4), (4, 5), (5, 6), (2, 2), (3, 3), (6, 6), (4, 6)])
def test_milnor_number_oracle(a, b):
    # independent oracle: for x^a + y^b the Milnor number is (a-1)(b-1) and
    # chi of the Milnor fibre satisfies 1 - mu = sum N_i * chi(E_i° over 0)
    rd = resolve_curve_germ(P(f"x^{a} + y^{b}"))
    acc = 0
    for c in rd.components:
        acc += c.N * chi_origin(rd, {c.id})
    assert acc == 1 - (a - 1) * (b - 1)


@pytest.mark.parametrize("a,b", [(2, 3), (2, 5), (3, 4), (4, 5), (5, 7), (2, 2), (3, 3), (7, 7)])
def test_lct_closed_form_oracle(a, b):
    # independent oracle: lct(x^a + y^b) = 1/a + 1/b
    rd = resolve_curve_germ(P(f"x^{a} + y^{b}"))
    assert lct_local(rd) == Fraction(1, a) + Fraction(1, b)


def test_total_transform_division_check():
    # N of every divisor equals the order of vanishing of the total transform,
    # reconstructed in the chart of each history step by explicit division
    state = resolve_curve_state(P("x^2 + y^3"))
    # after step 1 the pending center's chart holds the strict transform plus
    # axes; multiply back and divide by the exceptional coordinate exactly N times
    start = initial_state(P("x^2 + y^3"))
    mid = blowup_step(start, start.pending_centers[0])
    (center,) = mid.pending_centers
    assert [c.id for _, c in center.axes] == ["E1"]
    total = None
    for poly, multiplicity in center.factors:
        part = poly**multiplicity
        total = part if total is None else total * part
    for axis, comp in center.axes:
        N = next(c.N for c in mid.components if c.id == comp.id)
        assert N == comp.N
        var_poly = P("x") if axis == 0 else P("y")
        lifted = total * var_poly**N
        assert lifted.min_exponent(axis) == N


@pytest.mark.parametrize("text,a,b", [("y^2-x^2001", 2001, 2), ("x^3010+y^3", 3010, 3)])
def test_long_resolutions_have_no_step_limit(text, a, b):
    # about a/b blowups; Z(x^a + y^b) with gcd(a, b) = 1 is
    # ((a+b-1)s + a+b) / ((s+1)(ab s + a+b))
    f = P(text)
    expect = RationalFunction((a + b, a + b - 1), (a + b, a * b + a + b, a * b))
    assert zeta_local(resolve_curve_germ(f)) == expect
    assert zeta_local(toric_resolution_data(f)) == expect


def test_substitute_shift_exact():
    f = P("y^3 + x*y")
    shifted = f.substitute_shift(1, 2)
    # y -> y + 2: (y+2)^3 + x(y+2)
    expect = P("y^3 + 6*y^2 + 12*y + 8 + x*y + 2*x")
    assert shifted == expect
    assert all(type(c) is int for c in shifted.terms.values())
    assert f.substitute_shift(1, 0) == f
    # y -> y + 1/2 scaled by 2^2: 4*(y + 1/2)^2
    half = P("y^2").substitute_shift(1, "1/2")
    assert half.terms == {(0, 2): 4, (0, 1): 4, (0, 0): 1}
    assert half == P("y^2 + y + 1/4")


@pytest.mark.parametrize("text,allow_nonreduced", [
    (entry["input"]["poly"], entry.get("allow_nonreduced", False))
    for entry in json.loads(Path(corpus_path_default()).read_text())["entries"]
    if "poly" in entry["input"]
] + [
    # rational centres and rational coefficients
    ("(y-1/2*x)*(y-3/7*x)*(y+x)*(y-x^2)", False),
    ("(2*y-3*x)*(5*y+x)*(y-1/2*x^3)", False),
    ("(y^2-1/3*x^3)^2+5/7*x^7", False),
    ("(y-2/3*x)^2-1/9*x^5", False),
])
def test_every_chart_has_integer_coefficients(text, allow_nonreduced):
    state = initial_state(P(text), allow_nonreduced)
    while True:
        for center in state.pending_centers:
            for poly, _ in center.factors:
                assert all(type(c) is int for c in poly.terms.values()), center.description
        if not state.pending_centers:
            break
        blowup_step(state, state.pending_centers[0])


def test_irrational_orbit_shared_by_two_factors():
    # y^2 - 2x^2 and y^2 - 2x^2 + x^3 share the tangent directions t = ±sqrt(2);
    # separating them needs a blowup at a degree-2 orbit
    f = P("(y^2 - 2*x^2)*(y^2 - 2*x^2 + x^3)")
    with pytest.raises(IrrationalCenter):
        resolve_curve_germ(f)


def test_nonreduced_smooth_germ():
    rd = resolve_curve_germ(P("x^2"), allow_nonreduced=True)
    assert comp_map(rd) == {"B1": (2, 1)}
    assert zeta_local(rd) == RationalFunction((1,), (1, 2))
    assert lct_local(rd) == Fraction(1, 2)
    rd = resolve_curve_germ(P("y^3"), allow_nonreduced=True)
    assert zeta_local(rd) == RationalFunction((1,), (1, 3))


def test_ordinary_triple_point_two_routes():
    # an ordinary triple point has the same zeta function whether its three
    # tangents are rational lines or roots of an irreducible cubic
    z1 = zeta_local(resolve_curve_germ(P("x*y*(x + y)")))
    z2 = zeta_local(resolve_curve_germ(P("x^3 + y^3")))
    z3 = zeta_local(resolve_curve_germ(P("x^3 + y^3 + x*y^2")))
    assert z1 == z2 == z3


def test_euler_strata_direct():
    from topzeta.curve_resolution import euler_strata
    state = resolve_curve_state(P("x*y"))
    table = euler_strata(state)
    as_dict = {tuple(sorted(st.ids)): (st.chi_total, st.chi_origin) for st in table}
    assert as_dict == {
        ("E1",): (0, 0),
        ("B1",): (0, 0),
        ("B2",): (0, 0),
        ("B1", "E1"): (1, 1),
        ("B2", "E1"): (1, 1),
    }


def test_blowup_step_requires_pending_center():
    from topzeta.curve_resolution import CenterOrbit
    state = initial_state(P("x*y"))
    stranger = CenterOrbit(degree=1, description="nowhere")
    with pytest.raises(ValueError):
        blowup_step(state, stranger)


# -- squarefree parts as chart factors ------------------------------------------------

def test_ordinary_200_fold_point_closed_form():
    # one blowup; E1 has (N, nu) = (a, 2) and meets the a branches, so
    # Z = (2 - a)/(2 + a s) + a/((1 + s)(2 + a s))
    a = 200
    f = P(f"x^{a} + y^{a}")
    z = zeta_local(resolve_curve_germ(f))
    assert z == RationalFunction((2, 2 - a), (2, 2 + a, a))
    assert z == zeta_local(toric_resolution_data(f))


@pytest.mark.parametrize("text", [
    "(x^2-y^3)*(x^3-y^5)*(x^5-y^7)*(x^7-y^11)*(x^11-y^13)*(x-y^17)",
    "x^24 - y^36",
    # two tangent rational branches inside one squarefree part
    "y^2 - x^4",
])
def test_many_branch_germs_blowup_matches_toric(text):
    f = P(text)
    assert zeta_local(resolve_curve_germ(f)) == zeta_local(toric_resolution_data(f))


def test_unit_inside_a_part_leaves_zeta_unchanged():
    z = zeta_local(resolve_curve_germ(P("(x^2 - y^3)*(1 + x + y)")))
    assert z == zeta_local(resolve_curve_germ(P("x^2 - y^3")))


def test_tangent_branches_of_a_repeated_part():
    # x*(y - x^2)^2*(y + x^2)^2: E1 = (5, 2) meets the line x = 0 and E2;
    # E2 = (9, 3) meets the two branches of multiplicity 2 transversally, so
    # Z = -1/(3+9s) + 1/((2+5s)(3+9s)) + 1/((2+5s)(1+s)) + 2/((3+9s)(1+2s)).
    # The toric pipeline rejects this germ as degenerate.
    state = resolve_curve_state(P("x*(y^2 - x^4)^2"), allow_nonreduced=True)
    assert state.numerical_history() == [(5, 2), (9, 3)]
    z = zeta_local(resolution_data(state))
    assert z == RationalFunction((3, 3, -2), (3, 18, 33, 18))
