import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from topzeta import unipoly as up

_t = sympy.Symbol("t")


def sympy_factor_rational(p):
    """factor_rational's contract, computed by sympy's factor_list over QQ."""
    expr = sum(sympy.Rational(c.numerator, c.denominator) * _t**i for i, c in enumerate(p))
    _, factors = sympy.Poly(expr, _t, domain="QQ").factor_list()
    out = [
        (up.monic(up.make(Fraction(int(c.p), int(c.q)) for c in reversed(fac.all_coeffs()))), m)
        for fac, m in factors
    ]
    return sorted(out, key=lambda fm: (up.degree(fm[0]), fm[0]))


def binomial(n, c):
    """t^n + c."""
    return up.make([c] + [0] * (n - 1) + [1])


def test_make_trims_trailing_zeros():
    assert up.make([1, 2, 0, 0]) == (Fraction(1), Fraction(2))
    assert up.make([0, 0]) == ()


def test_divmod_exact():
    # (t^2 - 1) = (t - 1)(t + 1)
    q, r = up.divmod_poly(up.make([-1, 0, 1]), up.make([-1, 1]))
    assert q == up.make([1, 1]) and r == ()


def test_divmod_with_remainder():
    q, r = up.divmod_poly(up.make([1, 0, 1]), up.make([1, 1]))
    assert up.add(up.mul(q, up.make([1, 1])), r) == up.make([1, 0, 1])


def test_gcd_monic():
    # gcd((t-1)^2 (t+2), (t-1)(t+3)) = t - 1
    a = up.mul(up.mul(up.make([-1, 1]), up.make([-1, 1])), up.make([2, 1]))
    b = up.mul(up.make([-1, 1]), up.make([3, 1]))
    assert up.gcd(a, b) == up.make([-1, 1])


def test_to_integer_primitive_positive_lead():
    assert up.to_integer(up.make([Fraction(1, 2), Fraction(-3, 4)])) == (-2, 3)
    assert up.to_integer(()) == ()
    assert up.to_integer(up.make([Fraction(4), Fraction(6)])) == (2, 3)


def test_factor_rational_orbits():
    # 1 + t^3 = (1 + t)(1 - t + t^2)
    factors = up.factor_rational(up.make([1, 0, 0, 1]))
    assert factors == [
        (up.make([1, 1]), 1),
        (up.make([1, -1, 1]), 1),
    ]


def test_factor_rational_multiplicity():
    # (1+t)^2
    factors = up.factor_rational(up.make([1, 2, 1]))
    assert factors == [(up.make([1, 1]), 2)]


def test_strip_origin_root():
    assert up.strip_origin_root(up.make([0, 0, 3, 3])) == up.make([3, 3])
    assert up.strip_origin_root(()) == ()


@pytest.mark.parametrize("coeffs,x,value", [
    ([1, 1, 1], 2, 7),
    ([0, 0, 1], Fraction(1, 2), Fraction(1, 4)),
])
def test_evaluate(coeffs, x, value):
    assert up.evaluate(up.make(coeffs), x) == value


integer_factors = st.lists(st.integers(-30, 30), min_size=2, max_size=6).filter(lambda c: c[-1])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(integer_factors, st.integers(1, 3)), min_size=1, max_size=4),
    st.integers(0, 2),
    st.integers(1, 6),
)
def test_factor_rational_matches_sympy(factors, origin_power, denominator):
    # random products with repeated factors, a power of t and a rational scale
    p = up.make([0] * origin_power + [Fraction(1, denominator)])
    for coeffs, mult in factors:
        for _ in range(mult):
            p = up.mul(p, up.make(coeffs))
    assert up.factor_rational(p) == sympy_factor_rational(p)


def test_factor_rational_cyclotomic_binomials():
    start = time.perf_counter()
    factors = up.factor_rational(binomial(200, 1))
    assert time.perf_counter() - start < 0.05
    # t^200 + 1 = Phi_16 * Phi_80 * Phi_400
    assert [(up.degree(f), m) for f, m in factors] == [(8, 1), (32, 1), (160, 1)]
    product = up.make([1])
    for f, _ in factors:
        product = up.mul(product, f)
    assert product == binomial(200, 1)
    for p in (binomial(40, 1), binomial(24, -1)):
        assert up.factor_rational(p) == sympy_factor_rational(p)


@pytest.mark.parametrize("coeffs", [
    [576, 0, -960, 0, 352, 0, -40, 0, 1],  # Swinnerton-Dyer: splits mod every prime
    [3] + [0] * 59 + [1],                  # t^60 + 3, irreducible by Eisenstein at 3
])
def test_factor_rational_irreducible(coeffs):
    p = up.make(coeffs)
    assert up.factor_rational(p) == [(p, 1)]
