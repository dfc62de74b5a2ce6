import random
import time
from fractions import Fraction
from math import comb, factorial, gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from topzeta.errors import NonVanishingAtOrigin, ParseError, UnknownVariable
from topzeta.polynomial import (
    Poly,
    _Parser,
    germ_factors,
    is_nondegenerate_curve,
    newton_polygon_local,
    parse_poly,
    segment_face_coeffs,
)


def P(text, variables=("x", "y")):
    return parse_poly(text, variables)


# -- parsing -----------------------------------------------------------------

def test_parse_simple_terms():
    f = P("x^2 + y^3")
    assert f.terms == {(2, 0): 1, (0, 3): 1}
    assert all(type(c) is int for c in f.terms.values())


def test_parse_cancellation_to_zero():
    f = P("x*y - x*y")
    assert f.is_zero() and f == Poly.zero()


def test_parse_binomial_expansion():
    assert P("(x+y)^2").terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_parse_rational_literals_and_precedence():
    # a rational germ parses to its smallest integer multiple: 2*(x^2/2 - 3y)
    f = P("1/2*x^2 - 3*y")
    assert f.terms == {(2, 0): 1, (0, 1): -6}
    assert all(type(c) is int for c in f.terms.values())
    # smallest, not primitive: 3*(2/3*x^2 + 2/3*y); integer text is kept as is
    assert P("4/6*x^2 + 2/3*y").terms == {(2, 0): 2, (0, 1): 2}
    assert P("2*x^2 + 4*y").terms == {(2, 0): 2, (0, 1): 4}
    # ^ binds tighter than *, which binds tighter than -
    assert P("2*x^3") == P("2*(x^3)")


def test_parse_unary_minus():
    assert P("-x + y") == P("y - x")
    assert P("--x") == P("x")


def test_parse_whitespace_insensitive():
    assert P(" x ^ 2 +  y\t^3 ") == P("x^2+y^3")


def test_parse_errors_are_positioned():
    with pytest.raises(ParseError) as e:
        P("x^2 + + 3")
    assert e.value.position == 6
    with pytest.raises(ParseError):
        P("x*)y(")
    with pytest.raises(ParseError):
        P("x^(2)")  # exponent must be an integer literal
    with pytest.raises(ParseError):
        P("")


def test_parse_nesting_depth_is_bounded():
    depth = _Parser.MAX_NESTING
    assert P("(" * depth + "x" + ")" * depth + "+y^2") == P("x+y^2")
    with pytest.raises(ParseError, match="nested deeper") as e:
        P("(" * 3000 + "x" + ")" * 3000 + "+y^2")
    assert e.value.position == depth
    with pytest.raises(ParseError, match="nested deeper"):
        P("(" * (depth + 1) + "x" + ")" * (depth + 1))


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable) as e:
        P("x + w")
    assert e.value.position == 4


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        P("2x")
    with pytest.raises(ParseError):
        P("x y")


@st.composite
def rational_terms(draw):
    """A term map with Fraction coefficients, none of them zero."""
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        e = (draw(st.integers(0, 7)), draw(st.integers(0, 7)))
        num = draw(st.integers(-30, 30))
        den = draw(st.integers(1, 9))
        terms[e] = terms.get(e, Fraction(0)) + Fraction(num, den)
    return {e: c for e, c in terms.items() if c}


def smallest_integer_multiple(terms):
    """Reference for parse_poly: L*f, L the lcm of the coefficient denominators."""
    scale = lcm(*(c.denominator for c in terms.values()))
    return {e: int(c * scale) for e, c in terms.items()}


@st.composite
def random_polys(draw):
    return Poly(smallest_integer_multiple(draw(rational_terms())))


@settings(max_examples=80, deadline=None)
@given(random_polys())
def test_print_parse_round_trip(f):
    assert P(f.to_text()) == f


def test_constructor_takes_integers_only():
    assert Poly({(1, 0): Fraction(4, 2), (0, 1): 3}).terms == {(1, 0): 2, (0, 1): 3}
    assert type(Poly({(1, 0): Fraction(4, 2)}).coefficient((1, 0))) is int
    with pytest.raises(ValueError, match="not an integer"):
        Poly({(1, 0): Fraction(1, 2)})
    assert Poly.zero().constant_term() == 0 and type(Poly.zero().coefficient((1, 1))) is int
    assert Poly.constant(3).terms == {(0, 0): 3} and Poly.constant(0).is_zero()


@pytest.mark.parametrize("exps", [(1, 0, 0), (1,), (), (1, -1)])
def test_constructor_takes_exponent_pairs_only(exps):
    with pytest.raises(ValueError, match="bad exponent pair"):
        Poly({exps: 1})


@pytest.mark.parametrize("variables", [("x", "y", "z"), ("x",), ("x", "x"), ()])
def test_parse_needs_two_distinct_names(variables):
    with pytest.raises(ValueError, match="two distinct variable names"):
        parse_poly("x", variables)


def test_parse_names_its_two_variables():
    assert parse_poly("u^2 + v^3", ["u", "v"]) == parse_poly("x^2 + y^3")
    assert parse_poly("x^2 + y^3", ("y", "x")) == P("y^2 + x^3")
    assert P("x^2*y - 3*y^4").to_text(("u", "v")) == "-3*v^4 + u^2*v"


def _coefficient_text(c, k):
    """c written as (c*k) * (1/(den*k)), so the parser sees a common factor k."""
    return f"({c.numerator * k})*(1/{c.denominator * k})"


@settings(max_examples=80, deadline=None)
@given(rational_terms(), st.lists(st.integers(1, 4), min_size=6, max_size=6))
def test_parse_gives_smallest_integer_multiple(terms, spread):
    text = " + ".join(
        f"{_coefficient_text(c, k)}*x^{i}*y^{j}"
        for ((i, j), c), k in zip(sorted(terms.items()), spread)
    ) or "0"
    f = P(text)
    assert all(type(c) is int for c in f.terms.values())
    assert f.terms == smallest_integer_multiple(terms)
    # integer text: exactly the reference's term map
    integer_text = " + ".join(f"({c.numerator})*x^{i}*y^{j}" for (i, j), c in terms.items())
    integer_terms = {e: c.numerator for e, c in terms.items()}
    assert P(integer_text or "0").terms == integer_terms


def fraction_shift(terms, var, offset):
    """Reference for substitute_shift: the exact f(.., x_var + offset, ..) in
    Fractions."""
    out = {}
    for e, c in terms.items():
        k = e[var]
        for j in range(k + 1):
            ne = list(e)
            ne[var] = j
            ne = tuple(ne)
            out[ne] = out.get(ne, 0) + c * comb(k, j) * Fraction(offset) ** (k - j)
    return {e: c for e, c in out.items() if c}


@settings(max_examples=120, deadline=None)
@given(random_polys(), st.integers(0, 1), st.integers(-12, 12), st.integers(1, 9))
def test_substitute_shift_is_a_positive_multiple_of_the_exact_shift(f, var, p, q):
    offset = Fraction(p, q)
    g = f.substitute_shift(var, offset)
    assert all(type(c) is int for c in g.terms.values())
    ref = fraction_shift(f.terms, var, offset)
    assert set(g.terms) == set(ref)
    if not ref:
        return
    e0 = next(iter(ref))
    ratio = g.terms[e0] / ref[e0]
    assert ratio > 0
    assert all(g.terms[e] == ratio * c for e, c in ref.items())
    if offset.denominator == 1:
        assert g.terms == ref
    elif gcd(*f.terms.values()) == 1:
        assert gcd(*g.terms.values()) == 1


def test_substitute_shift_divides_out_its_content():
    # 2 * (2*(y + 1/2) + x) = 2*(2*y + x + 1); without the division the
    # content 2 would stay
    f = P("2*y + x")
    assert f.substitute_shift(1, Fraction(1, 2)).terms == {(0, 1): 2, (1, 0): 1, (0, 0): 1}


def trinomial(n):
    """(1 + x + y)^n by the multinomial theorem."""
    return {
        (i, j): factorial(n) // (factorial(i) * factorial(j) * factorial(n - i - j))
        for i in range(n + 1) for j in range(n + 1 - i)
    }


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8])
def test_power_matches_trinomial_closed_form(n):
    assert P(f"(1+x+y)^{n}").terms == trinomial(n)


def test_large_power_parses_fast():
    # the closed form at n = 80; the last squaring of binary powering is
    # skipped, so parsing computes (1+x+y)^64 but not (1+x+y)^128
    start = time.perf_counter()
    f = P("(x^2+y^3)*(1+x+y)^80")
    elapsed = time.perf_counter() - start
    assert f == P("x^2+y^3") * Poly(trinomial(80))
    assert elapsed < 1.0, elapsed


# -- Newton polygon ----------------------------------------------------------

def test_polygon_cusp():
    np_f = newton_polygon_local(P("x^2 + y^3"))
    assert np_f.vertices == ((2, 0), (0, 3))
    segs = np_f.segments
    assert len(segs) == 1
    assert segs[0].normal == (3, 2) and segs[0].value == 6


def test_polygon_single_vertex():
    np_f = newton_polygon_local(P("x*y"))
    assert np_f.vertices == ((1, 1),)
    assert np_f.segments == ()


def test_polygon_point_on_face():
    np_f = newton_polygon_local(P("x^2 + x*y + y^2"))
    assert np_f.vertices == ((2, 0), (0, 2))
    seg = np_f.segments[0]
    assert seg.normal == (1, 1) and seg.value == 2
    assert (1, 1) in seg.lattice_points()


def test_polygon_requires_vanishing():
    with pytest.raises(NonVanishingAtOrigin):
        newton_polygon_local(P("1 + x"))
    with pytest.raises(NonVanishingAtOrigin):
        newton_polygon_local(Poly.zero())


@settings(max_examples=80, deadline=None)
@given(random_polys())
def test_polygon_hull_contains_support(f):
    terms = {e: c for e, c in f.terms.items() if sum(e) > 0}
    if not terms:
        return
    f = Poly(terms)
    np_f = newton_polygon_local(f)
    # every support point weakly above every supporting line; vertices in support
    for seg in np_f.segments:
        a, b = seg.normal
        assert all(a * i + b * j >= seg.value for (i, j) in f.support())
    assert set(np_f.vertices) <= set(f.support())


# -- non-degeneracy ------------------------------------------------------------

def test_nondegenerate_examples():
    assert is_nondegenerate_curve(P("x^2 + y^3")) is True
    assert is_nondegenerate_curve(P("x^2 + 2*x*y + y^2")) is False
    assert is_nondegenerate_curve(P("x^3 + y^3")) is True


def test_nondegenerate_monomial():
    assert is_nondegenerate_curve(P("x^2*y^3")) is True


_PRIME = 2_147_483_647


def _mod_eval(terms, x0, y0):
    acc = 0
    for (i, j), c in terms.items():
        assert type(c) is int
        acc = (acc + c * pow(x0, i, _PRIME) * pow(y0, j, _PRIME)) % _PRIME
    return acc


def _partial(terms, var):
    out = {}
    for e, c in terms.items():
        if e[var]:
            lowered = list(e)
            lowered[var] -= 1
            out[tuple(lowered)] = c * e[var]
    return out


def test_nondegenerate_against_mod_p_sampler():
    # If the exact test says non-degenerate, random torus points over F_p must
    # not satisfy the critical-point system of any face polynomial.  The
    # sampler can miss witnesses (irrational critical points), so degenerate
    # verdicts are not checked in the other direction.
    rng = random.Random(20240817)
    germs = ["x^2 + y^3", "x^3 + y^3", "x^2 + 2*x*y + y^2", "x^2*y + y^4",
             "x^4 + x^2*y + y^2", "(x+y)^2", "x^5 + y^2", "x^3 + x*y + y^3"]
    for text in germs:
        f = P(text)
        verdict = is_nondegenerate_curve(f)
        if not verdict:
            continue
        np_f = newton_polygon_local(f)
        faces = [[v] for v in np_f.vertices] + [s.lattice_points() for s in np_f.segments]
        for face in faces:
            # the face polynomial: the sub-sum of f over the face's points
            on_face = set(face)
            ftau = {e: c for e, c in f.terms.items() if e in on_face}
            assert ftau
            fx, fy = _partial(ftau, 0), _partial(ftau, 1)
            for _ in range(200):
                x0 = rng.randrange(1, _PRIME)
                y0 = rng.randrange(1, _PRIME)
                assert not (
                    _mod_eval(ftau, x0, y0) == 0
                    and _mod_eval(fx, x0, y0) == 0
                    and _mod_eval(fy, x0, y0) == 0
                )


# -- reducedness ---------------------------------------------------------------

def _reduced(f):
    return all(m == 1 for _, m in germ_factors(f))


def test_reduced_examples():
    assert _reduced(P("x^2 + y^3")) is True
    assert _reduced(P("x^2*y")) is False
    assert _reduced(P("x*y")) is True


def test_reduced_ignores_units():
    # the repeated factor does not pass through the origin
    assert _reduced(P("x*(1+x)^2")) is True
    assert _reduced(P("x^2*(1+x)")) is False


def test_germ_factors_multiplicities():
    f = P("x^2*y")
    assert [(p.to_text(), m) for p, m in germ_factors(f)] == [("y", 1), ("x", 2)]
    g = P("x*(x+y)^2")
    facs = germ_factors(g)
    assert sorted((p.to_text(), m) for p, m in facs) == [("x", 1), ("x + y", 2)]


def test_germ_factors_keep_units_inside_parts():
    # a squarefree part is not split further: the unit 1+x+y stays with x,
    # while a part that does not vanish at the origin is dropped
    assert germ_factors(P("x*(1+x+y)")) == [(P("x*(1+x+y)"), 1)]
    assert germ_factors(P("x*(1+y)^2")) == [(P("x"), 1)]


def test_segment_face_coeffs():
    f = P("x^2 + y^3")
    seg = newton_polygon_local(f).segments[0]
    assert segment_face_coeffs(f, seg) == (1, 1)
    g = P("x^2 + 2*x*y + y^2")
    seg = newton_polygon_local(g).segments[0]
    assert segment_face_coeffs(g, seg) == (1, 2, 1)
    # rational coefficients give the primitive integer multiple
    h = P("-1/2*x^2 + 3/4*y^3")
    seg = newton_polygon_local(h).segments[0]
    assert segment_face_coeffs(h, seg) == (-2, 3)


def up_to_constant(parts):
    """Parts (Polys or term maps) scaled to leading coefficient 1 in (y, x)-lex
    order, as term maps over Q."""
    out = []
    for p, m in parts:
        terms = p.terms if isinstance(p, Poly) else p
        lead = terms[max(terms, key=lambda e: (e[1], e[0]))]
        out.append(({e: Fraction(c) / lead for e, c in terms.items()}, m))
    return out


def sympy_germ_factors(f):
    """germ_factors' contract, computed by sympy's sqf_list over QQ, as term
    maps with Fraction coefficients."""
    x, y = sympy.symbols("x y")
    terms = {e: sympy.Integer(c) for e, c in f.terms.items()}
    _, parts = sympy.Poly(terms, x, y, domain="QQ").sqf_list()
    out = []
    for part, m in parts:
        p = {e: Fraction(int(c.p), int(c.q)) for e, c in part.terms()}
        if (0, 0) not in p:
            out.append((p, m))
    return out


small_bivariate = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-9, 9).filter(bool),
    min_size=1, max_size=4,
).map(Poly)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(small_bivariate, st.integers(1, 3)), min_size=1, max_size=4))
def test_germ_factors_match_sympy(factors):
    # random products with repeated factors; a line through the origin makes
    # every product a germ
    f = P("x + 2*y")
    for g, mult in factors:
        f = f * g**mult
    assert up_to_constant(germ_factors(f)) == up_to_constant(sympy_germ_factors(f))


@pytest.mark.parametrize("text,expected", [
    # six branches, one reduced part
    ("(x^2-y^3)*(x^3-y^5)*(x^5-y^7)*(x^7-y^11)*(x^11-y^13)*(x-y^17)",
     [("(x^2-y^3)*(x^3-y^5)*(x^5-y^7)*(x^7-y^11)*(x^11-y^13)*(x-y^17)", 1)]),
    # parts of the content in Z[x] sit next to the parts in y; 1-x is a unit
    ("x^5*(1-x)^3*(y-x)^2", [("y-x", 2), ("x", 5)]),
    # a content part and a y-part of the same multiplicity are one part
    ("x^2*(y-x)^2*(1+x)", [("x*(y-x)", 2)]),
    # the unit cofactor 1+x stays inside its part
    ("(x^2-y^3)^3*(x^3-y^2)^2*(x+y)*(1+x)^2",
     [("x+y", 1), ("(x^3-y^2)*(1+x)", 2), ("x^2-y^3", 3)]),
])
def test_germ_factors_pinned(text, expected):
    parts = [(P(part), m) for part, m in expected]
    assert up_to_constant(germ_factors(P(text))) == up_to_constant(parts)
