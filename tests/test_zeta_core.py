import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from topzeta.curve_resolution import resolve_curve_germ
from topzeta.errors import InvalidResolutionData, NoQualifyingComponent
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

_s = sympy.Symbol("s")


def sympy_zeta(rd, use_origin=True):
    """Independent evaluation of the defining sum, via sympy's own rational
    arithmetic; returns canonical integer coefficient tuples."""
    by_id = {c.id: c for c in rd.components}
    total = sympy.Rational(rd.empty_chi_origin if use_origin else rd.empty_chi_total)
    for stratum in rd.strata:
        chi = stratum.chi_origin if use_origin else stratum.chi_total
        term = sympy.Rational(chi)
        for cid in stratum.ids:
            comp = by_id[cid]
            term /= comp.nu + comp.N * _s
        total += term
    total = sympy.cancel(sympy.together(total))
    num, den = sympy.fraction(total)
    num = sympy.Poly(num, _s)
    den = sympy.Poly(den, _s)
    return num, den


def reference_zeta(rd):
    """The defining sum folded one stratum at a time through
    ``RationalFunction.__add__``, which reduces by a polynomial gcd after
    every addition."""
    use_origin = rd.scope == "local"
    by_id = {c.id: c for c in rd.components}
    total = RationalFunction.constant(
        rd.empty_chi_origin if use_origin else rd.empty_chi_total
    )
    for stratum in rd.strata:
        chi = stratum.chi_origin if use_origin else stratum.chi_total
        if chi == 0:
            continue
        term = RationalFunction.constant(chi)
        for cid in stratum.ids:
            comp = by_id[cid]
            term = term * RationalFunction((1,), (comp.nu, comp.N))
        total = total + term
    return total


def assert_matches_sympy(z, rd, use_origin=True):
    num, den = sympy_zeta(rd, use_origin)
    zn = sum(c * _s**i for i, c in enumerate(z.num))
    zd = sum(c * _s**i for i, c in enumerate(z.den))
    assert sympy.simplify(zn / zd - num.as_expr() / den.as_expr()) == 0


def cusp_rd():
    comps = (
        Component("E1", 2, 2),
        Component("E2", 3, 3),
        Component("E3", 6, 5),
        Component("B1", 1, 1),
    )
    strata = (
        Stratum(frozenset({"E1"}), 1, 1),
        Stratum(frozenset({"E2"}), 1, 1),
        Stratum(frozenset({"E3"}), -1, -1),
        Stratum(frozenset({"B1"}), 0, 0),
        Stratum(frozenset({"E1", "E3"}), 1, 1),
        Stratum(frozenset({"E2", "E3"}), 1, 1),
        Stratum(frozenset({"B1", "E3"}), 1, 1),
    )
    return ResolutionData(2, comps, strata, branch_ids=("B1",))


# -- RationalFunction ---------------------------------------------------------

def test_canonical_form():
    z = RationalFunction((Fraction(1),), (Fraction(2), Fraction(2)))
    assert z.num == (1,) and z.den == (2, 2)
    # joint scaling: s/6 stays exact
    z = RationalFunction((0, Fraction(1, 6)), (1,))
    assert z.num == (0, 1) and z.den == (6,)
    # reduction: (s+1)^2/(s+1) = s+1
    z = RationalFunction((1, 2, 1), (1, 1))
    assert z.num == (1, 1) and z.den == (1,)
    # denominator sign
    z = RationalFunction((1,), (-1, -1))
    assert z.num == (-1,) and z.den == (1, 1)


def test_canonicalization_idempotent():
    z = RationalFunction((5, 4), (5, 11, 6))
    again = RationalFunction(z.num, z.den)
    assert z == again


def test_zero():
    z = RationalFunction((0,), (3, 7))
    assert z.is_zero() and z.num == (0,) and z.den == (1,)


rationals = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=8
)


@st.composite
def rational_functions(draw):
    num = draw(st.lists(rationals, min_size=1, max_size=4))
    den = draw(st.lists(rationals, min_size=1, max_size=4).filter(lambda c: any(x != 0 for x in c)))
    return RationalFunction(num, den)


@settings(max_examples=60, deadline=None)
@given(rational_functions(), rational_functions())
def test_rf_addition_commutative(a, b):
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(rational_functions(), rational_functions(), rational_functions())
def test_rf_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


def sympy_coeffs(expr):
    """Ascending Fraction coefficients of a polynomial expression in s."""
    poly = sympy.Poly(expr, _s, domain="QQ")
    return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]


@settings(max_examples=20, deadline=None)
@given(
    st.lists(rationals, min_size=1, max_size=4),
    st.lists(rationals, min_size=1, max_size=4).filter(any),
    st.lists(rationals, min_size=1, max_size=3).filter(any),
)
def test_rf_constructor_matches_sympy_cancel(num, den, common):
    # a common factor c must cancel: RationalFunction(num*c, den*c) is
    # sympy's cancel(num/den) scaled to integer coefficients with joint gcd 1
    # and a positive leading denominator coefficient
    n, d, c = (
        sum(sympy.Rational(a.numerator, a.denominator) * _s**i for i, a in enumerate(p))
        for p in (num, den, common)
    )
    z = RationalFunction(sympy_coeffs(n * c), sympy_coeffs(d * c))
    p, q = map(sympy_coeffs, sympy.fraction(sympy.cancel(n / d)))
    scale = math.lcm(*(a.denominator for a in p + q))
    p, q = [int(a * scale) for a in p], [int(a * scale) for a in q]
    content = math.gcd(*p, *q) * (1 if q[-1] > 0 else -1)
    assert z.num == tuple(a // content for a in p)
    assert z.den == tuple(a // content for a in q)


def test_str_rendering():
    z = RationalFunction((5, 4), (5, 11, 6))
    assert str(z) == "(4*s + 5) / (6*s^2 + 11*s + 5)"


# -- zeta_local ---------------------------------------------------------------

def test_monomial_family_zeta():
    for n in (1, 2, 3, 5):
        for N in (1, 2, 6):
            rd = monomial_resolution_data(n, N)
            z = zeta_local(rd)
            # 1/(1+Ns)^n: expand denominator
            expect = RationalFunction.constant(1)
            for _ in range(n):
                expect = expect * RationalFunction((1,), (1, N))
            assert z == expect
            assert_matches_sympy(z, rd)


def test_smooth_germ_zeta():
    rd = ResolutionData(
        2, (Component("B1", 1, 1),), (Stratum(frozenset({"B1"}), 1, 1),),
        branch_ids=("B1",),
    )
    assert zeta_local(rd) == RationalFunction((1,), (1, 1))


def test_cusp_zeta():
    rd = cusp_rd()
    z = zeta_local(rd)
    assert z.num == (5, 4) and z.den == (5, 11, 6)
    assert_matches_sympy(z, rd)


def test_zeta_scope_guard():
    rd = cusp_rd()
    with pytest.raises(InvalidResolutionData):
        zeta_global(rd)


# -- zeta_global ----------------------------------------------------------------

def make_global(components, strata, empty_chi_total=0, n=2):
    return ResolutionData(
        n, components, strata, empty_chi_total=empty_chi_total, scope="global"
    )


def test_global_single_component():
    rd = make_global(
        (Component("E1", 1, 1),),
        (Stratum(frozenset({"E1"}), 1, 0),),
        empty_chi_total=2,
        n=3,
    )
    z = zeta_global(rd)
    # 2 + 1/(1+s) = (2s+3)/(s+1)
    assert z == RationalFunction((3, 2), (1, 1))
    assert_matches_sympy(z, rd, use_origin=False)


def test_global_cusp_variant():
    comps = (
        Component("E1", 2, 2),
        Component("E2", 3, 3),
        Component("E3", 6, 5),
        Component("B1", 1, 1),
    )
    strata = (
        Stratum(frozenset({"E1"}), 1, 0),
        Stratum(frozenset({"E2"}), 1, 0),
        Stratum(frozenset({"E3"}), -1, 0),
        Stratum(frozenset({"B1"}), 0, 0),
        Stratum(frozenset({"E1", "E3"}), 1, 0),
        Stratum(frozenset({"E2", "E3"}), 1, 0),
        Stratum(frozenset({"B1", "E3"}), 1, 0),
    )
    rd = make_global(comps, strata)
    z = zeta_global(rd)
    assert z.num == (5, 4) and z.den == (5, 11, 6)


def test_global_constant_only():
    rd = make_global((), (), empty_chi_total=7)
    assert zeta_global(rd) == RationalFunction.constant(7)


# -- poles ---------------------------------------------------------------------

def test_poles_double():
    rd = monomial_resolution_data(2, 2)
    z = zeta_local(rd)
    pt = poles(z, rd)
    assert [(p.location, p.order) for p in pt] == [(Fraction(-1, 2), 2)]


def test_poles_cusp():
    rd = cusp_rd()
    pt = poles(zeta_local(rd), rd)
    assert [(p.location, p.order) for p in pt] == [
        (Fraction(-5, 6), 1),
        (Fraction(-1), 1),
    ]
    assert pt.closest_to_origin().location == Fraction(-5, 6)


def test_poles_monomial_order_n():
    for n, N in [(1, 1), (3, 2), (5, 6)]:
        rd = monomial_resolution_data(n, N)
        pt = poles(zeta_local(rd), rd)
        assert [(p.location, p.order) for p in pt] == [(Fraction(-1, N), n)]


def test_pole_cancellation_is_honored():
    # chi values conspire so nu/N = 1/1 cancels: E1 (1,1) chi 1 and the pair
    # stratum -1 gives 1/(1+s) - 1/((1+s)(2+s)) = 1/(2+s): -1 is not a pole
    comps = (Component("E1", 1, 1), Component("E2", 1, 2))
    strata = (
        Stratum(frozenset({"E1"}), 1, 1),
        Stratum(frozenset({"E1", "E2"}), -1, -1),
    )
    rd = ResolutionData(2, comps, strata)
    z = zeta_local(rd)
    assert z == RationalFunction((1,), (2, 1))
    pt = poles(z, rd)
    assert [(p.location, p.order) for p in pt] == [(Fraction(-2), 1)]


def test_pole_order_counts_root_multiplicity():
    # (2s - 1)^2 (s + 1) = 4s^3 - 3s + 1
    z = RationalFunction((1,), (1, -3, 0, 4))
    assert z.pole_order(Fraction(1, 2)) == 2
    assert z.pole_order(-1) == 1
    assert z.pole_order(7) == 0
    assert z.pole_order(0) == 0
    assert RationalFunction.constant(3).pole_order(-1) == 0


def test_pole_table_sorted_closest_first():
    pt = PoleTable([(Fraction(-1), 1), (Fraction(-5, 6), 1), (Fraction(-7, 6), 2)])
    assert [p.location for p in pt] == [
        Fraction(-5, 6), Fraction(-1), Fraction(-7, 6)
    ]


# -- lct -------------------------------------------------------------------------

def test_lct_examples():
    assert lct_local(cusp_rd()) == Fraction(5, 6)
    smooth = ResolutionData(
        2, (Component("B1", 1, 1),), (Stratum(frozenset({"B1"}), 1, 1),)
    )
    assert lct_local(smooth) == 1
    for n, N in [(2, 3), (4, 5)]:
        assert lct_local(monomial_resolution_data(n, N)) == Fraction(1, N)


def test_lct_requires_origin_component():
    rd = ResolutionData(
        2,
        (Component("E1", 2, 1, meets_origin_fiber=False),),
        (),
        scope="global",
    )
    with pytest.raises(NoQualifyingComponent):
        lct_local(rd)
    assert lct_global(rd) == Fraction(1, 2)


# -- invariants -------------------------------------------------------------------

def test_candidate_containment_and_order_bound():
    for rd in [cusp_rd(), monomial_resolution_data(3, 4), monomial_resolution_data(5, 6)]:
        z = zeta_local(rd)
        pt = poles(z, rd)
        candidates = set(rd.candidate_pole_locations())
        max_stratum = max((len(st.ids) for st in rd.strata), default=0)
        for p in pt:
            assert p.location in candidates
            assert p.order <= max_stratum <= rd.ambient_dim
        # no pole strictly between -lct and 0
        lct = lct_local(rd)
        for p in pt:
            assert p.location <= -lct


def test_validation_errors():
    with pytest.raises(InvalidResolutionData):
        ResolutionData(2, (Component("E1", 0, 1),), ())
    with pytest.raises(InvalidResolutionData):
        ResolutionData(2, (Component("E1", 1, 1), Component("E1", 2, 2)), ())
    with pytest.raises(InvalidResolutionData):
        ResolutionData(
            2, (Component("E1", 1, 1),),
            (Stratum(frozenset({"E1", "E2"}), 1, 1),),
        )
    with pytest.raises(InvalidResolutionData):
        # stratum larger than ambient dimension
        ResolutionData(
            1, (Component("E1", 1, 1), Component("E2", 1, 1)),
            (Stratum(frozenset({"E1", "E2"}), 1, 1),),
        )
    with pytest.raises(InvalidResolutionData):
        # chi_origin non-zero off the origin fiber
        ResolutionData(
            2, (Component("E1", 1, 1, meets_origin_fiber=False),),
            (Stratum(frozenset({"E1"}), 1, 1),),
        )


@st.composite
def random_resolution_data(draw, scope="local"):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    comps = tuple(
        Component(f"C{i}", draw(st.integers(1, 6)), draw(st.integers(1, 6)), True)
        for i in range(k)
    )
    ids = [c.id for c in comps]
    strata = []
    seen = set()
    for _ in range(draw(st.integers(0, 5))):
        size = draw(st.integers(1, min(n, k)))
        members = frozenset(draw(st.permutations(ids))[:size])
        if members in seen:
            continue
        seen.add(members)
        chi = draw(st.integers(-3, 3))
        strata.append(Stratum(members, chi, chi if scope == "local" else 0))
    if scope == "local":
        return ResolutionData(n, comps, tuple(strata))
    return ResolutionData(
        n, comps, tuple(strata), empty_chi_total=draw(st.integers(-3, 3)), scope="global"
    )


@settings(max_examples=60, deadline=None)
@given(random_resolution_data())
def test_random_data_matches_sympy_oracle(rd):
    z = zeta_local(rd)
    assert_matches_sympy(z, rd)
    # pole table consistency on random data
    pt = poles(z, rd)
    candidates = set(rd.candidate_pole_locations())
    for p in pt:
        assert p.location in candidates
        assert p.order <= rd.ambient_dim


def zeta_of(rd):
    return zeta_local(rd) if rd.scope == "local" else zeta_global(rd)


def shuffled(rd, rnd):
    strata = list(rd.strata)
    rnd.shuffle(strata)
    return replace(rd, strata=tuple(strata))


@st.composite
def subdivided_resolution_data(draw, scope="local"):
    """A pair (random data, the same data after up to four subdivisions).

    A subdivision picks two components A, B of some stratum, adds E with
    (N, nu) = (N_A + N_B, nu_A + nu_B), and replaces every stratum S that
    contains A and B by S - {B} + {E} and S - {A} + {E}.  With a = nu_A + N_A s
    and b = nu_B + N_B s, 1/(ab) = 1/(a(a+b)) + 1/(b(a+b)), so Z is unchanged
    and the sum must cancel E's candidate pole, unless another component
    shares E's form.  Random data alone almost never makes the sum cancel
    a form."""
    rd = draw(random_resolution_data(scope))
    out = rd
    for k in range(draw(st.integers(0, 4))):
        pairs = [st_.ids for st_ in out.strata if len(st_.ids) >= 2]
        if not pairs:
            break
        a_id, b_id = draw(st.permutations(sorted(draw(st.sampled_from(pairs)))))[:2]
        a, b = out.component(a_id), out.component(b_id)
        e = Component(f"E{k}", a.N + b.N, a.nu + b.nu)
        strata = []
        for st_ in out.strata:
            if {a_id, b_id} <= st_.ids:
                strata.append(replace(st_, ids=st_.ids - {b_id} | {e.id}))
                strata.append(replace(st_, ids=st_.ids - {a_id} | {e.id}))
            else:
                strata.append(st_)
        out = replace(out, components=out.components + (e,), strata=tuple(strata))
    return rd, out


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(("local", "global")).flatmap(subdivided_resolution_data),
    st.randoms(use_true_random=False),
)
def test_factored_sum_matches_reference_fold(pair, rnd):
    original, rd = pair
    z = zeta_of(rd)
    ref = reference_zeta(rd)
    assert (z.num, z.den) == (ref.num, ref.den)
    assert z == zeta_of(original)
    # the order of the strata does not matter
    again = zeta_of(shuffled(rd, rnd))
    assert (again.num, again.den) == (z.num, z.den)
    # the pair handed to the trusted constructor is already canonical
    recanonical = RationalFunction(z.num, z.den)
    assert (recanonical.num, recanonical.den) == (z.num, z.den)


# -- sums that a gcd after every stratum made slow ---------------------------------

def product_data(factors):
    """Resolution data of f_1(x_1) ... f_k(x_k) from resolutions of the
    factors: components side by side, strata the products of the factors'
    strata (the empty one included) with Euler characteristics multiplied."""
    comps, terms = [], [(frozenset(), 1)]
    for k, rd in enumerate(factors):
        tag = f"f{k + 1}."
        comps += [replace(c, id=tag + c.id) for c in rd.components]
        own = [(frozenset(), rd.empty_chi_origin)] + [(st.ids, st.chi_origin) for st in rd.strata]
        terms = [
            (ids | {tag + i for i in other}, chi * c)
            for ids, chi in terms
            for other, c in own
            if chi * c
        ]
    empty = sum(chi for ids, chi in terms if not ids)
    strata = tuple(Stratum(ids, chi, chi) for ids, chi in terms if ids)
    dim = sum(rd.ambient_dim for rd in factors)
    return ResolutionData(dim, tuple(comps), strata, empty_chi_origin=empty)


@settings(max_examples=40, deadline=None)
@given(subdivided_resolution_data(), subdivided_resolution_data())
def test_factored_sum_of_product_data(first, second):
    # forms shared by the factors make one stratum cancel a power of a form
    rd = product_data([first[1], second[1]])
    z = zeta_local(rd)
    assert z == zeta_local(first[0]) * zeta_local(second[0])
    ref = reference_zeta(rd)
    assert (z.num, z.den) == (ref.num, ref.den)


def test_product_of_three_germs_is_product_of_zetas():
    factors = [
        resolve_curve_germ(parse_poly(text, ["x", "y"]))
        for text in ("(x^2-y^3)*(x^3-y^2)", "(x^2-y^5)*(x^5-y^2)", "x^7+y^11")
    ]
    rd = product_data(factors)
    assert len(rd.strata) == 1080
    expect = zeta_local(factors[0]) * zeta_local(factors[1]) * zeta_local(factors[2])
    assert zeta_local(rd) == expect
    assert zeta_local(shuffled(rd, random.Random(0))) == expect


def test_brieskorn_2000_3_blowup_toric_closed_form():
    # Z(x^a + y^b) with gcd(a, b) = 1 is ((a+b-1)s + a+b) / ((s+1)(ab s + a+b))
    a, b = 2000, 3
    f = parse_poly(f"x^{a}+y^{b}", ["x", "y"])
    expect = RationalFunction((a + b, a + b - 1), (a + b, a * b + a + b, a * b))
    assert zeta_local(resolve_curve_germ(f)) == expect
    assert zeta_local(toric_resolution_data(f)) == expect
