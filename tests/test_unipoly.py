from fractions import Fraction

import pytest

from topzeta import unipoly as up


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


def test_squarefree_part():
    sq = up.mul(up.mul(up.make([-1, 1]), up.make([-1, 1])), up.make([1, 1]))
    assert up.squarefree_part(sq) == up.monic(up.mul(up.make([-1, 1]), up.make([1, 1])))


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
