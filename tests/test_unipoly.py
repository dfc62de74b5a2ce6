import math
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from topzeta import unipoly as up

_t = sympy.Symbol("t")


def sympy_factor_rational(p):
    """factor_rational's contract, computed by sympy's factor_list over QQ:
    each factor scaled to its primitive integer multiple with positive
    leading coefficient, sorted by degree and then by the monic coefficients."""
    expr = sum(sympy.Rational(c.numerator, c.denominator) * _t**i for i, c in enumerate(p))
    _, factors = sympy.Poly(expr, _t, domain="QQ").factor_list()
    out = []
    for fac, m in factors:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(fac.all_coeffs())]
        scale = math.lcm(*(c.denominator for c in coeffs))
        ints = [int(c * scale) for c in coeffs]
        content = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
        out.append((tuple(v // content for v in ints), m))
    return sorted(out, key=lambda fm: (len(fm[0]), [Fraction(c, fm[0][-1]) for c in fm[0]]))


def binomial(n, c):
    """t^n + c."""
    return [c] + [0] * (n - 1) + [1]


def test_gcd_monic():
    # gcd((t-1)^2 (t+2), (t-1)(t+3)) = t - 1, with both cofactors
    a = up.zz_mul(up.zz_mul([-1, 1], [-1, 1]), [2, 1])
    b = up.zz_mul([-1, 1], [3, 1])
    assert up.gcd(a, b) == ([-1, 1], [-2, 1, 1], [3, 1])
    # contents: gcd(6 (t-1), -4 (t-1)^2) = 2 (t-1), and a unit pair
    assert up.gcd([-6, 6], [-4, 8, -4]) == ([-2, 2], [3], [2, -2])
    assert up.gcd([1, 1], [1, 0, 1]) == ([1], [1, 1], [1, 0, 1])


def test_to_integer_primitive_positive_lead():
    assert up.to_integer([Fraction(1, 2), Fraction(-3, 4)]) == (-2, 3)
    assert up.to_integer(()) == ()
    assert up.to_integer([Fraction(4), Fraction(6)]) == (2, 3)
    # any rational sequence: ints, and trailing zeros are dropped
    assert up.to_integer([1, 2, 0, 0]) == (1, 2)
    assert up.to_integer([0, 0]) == ()


def test_factor_rational_orbits():
    # 1 + t^3 = (1 + t)(1 - t + t^2)
    assert up.factor_rational([1, 0, 0, 1]) == [((1, 1), 1), ((1, -1, 1), 1)]


def test_factor_rational_multiplicity():
    # (1+t)^2
    assert up.factor_rational([1, 2, 1]) == [((1, 1), 2)]


integer_factors = st.lists(st.integers(-30, 30), min_size=2, max_size=6).filter(lambda c: c[-1])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(integer_factors, st.integers(1, 3)), min_size=1, max_size=4),
    st.integers(0, 2),
    st.integers(1, 6),
)
def test_factor_rational_matches_sympy(factors, origin_power, denominator):
    # random products with repeated factors, a power of t and a rational scale
    prod = [1]
    for coeffs, mult in factors:
        for _ in range(mult):
            prod = up.zz_mul(prod, coeffs)
    p = [0] * origin_power + [Fraction(c, denominator) for c in prod]
    assert up.factor_rational(p) == sympy_factor_rational(p)


def test_factor_rational_cyclotomic_binomials():
    start = time.perf_counter()
    factors = up.factor_rational(binomial(200, 1))
    assert time.perf_counter() - start < 0.05
    # t^200 + 1 = Phi_16 * Phi_80 * Phi_400
    assert [(up.degree(f), m) for f, m in factors] == [(8, 1), (32, 1), (160, 1)]
    product = [1]
    for f, _ in factors:
        product = up.zz_mul(product, f)
    assert product == binomial(200, 1)
    for p in (binomial(40, 1), binomial(24, -1)):
        assert up.factor_rational(p) == sympy_factor_rational(p)


@pytest.mark.parametrize("coeffs", [
    [576, 0, -960, 0, 352, 0, -40, 0, 1],  # Swinnerton-Dyer: splits mod every prime
    [3] + [0] * 59 + [1],                  # t^60 + 3, irreducible by Eisenstein at 3
])
def test_factor_rational_irreducible(coeffs):
    assert up.factor_rational(coeffs) == [(tuple(coeffs), 1)]
