"""Dense univariate polynomials with exact rational coefficients.

Polynomials are tuples of ``Fraction`` coefficients in ascending degree with no
trailing zeros; the zero polynomial is the empty tuple.  Everything here is
exact -- no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd

import sympy

Coeffs = tuple[Fraction, ...]


def make(coeffs) -> Coeffs:
    """Normalize a coefficient iterable (ascending degree) into canonical form."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(p: Coeffs) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(p) - 1


def is_zero(p: Coeffs) -> bool:
    return not p


def add(p: Coeffs, q: Coeffs) -> Coeffs:
    n = max(len(p), len(q))
    return make([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def neg(p: Coeffs) -> Coeffs:
    return tuple(-c for c in p)


def sub(p: Coeffs, q: Coeffs) -> Coeffs:
    return add(p, neg(q))


def mul(p: Coeffs, q: Coeffs) -> Coeffs:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return make(out)


def scale(p: Coeffs, c) -> Coeffs:
    c = Fraction(c)
    if c == 0:
        return ()
    return tuple(a * c for a in p)


def divmod_poly(p: Coeffs, q: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Exact polynomial division with remainder; q must be non-zero."""
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq, lead = len(q) - 1, q[-1]
    while len(rem) - 1 >= dq and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        shift = len(rem) - 1 - dq
        factor = rem[-1] / lead
        quo[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
    return make(quo), make(rem)


def evaluate(p: Coeffs, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: Coeffs) -> Coeffs:
    return make([i * c for i, c in enumerate(p)][1:])


def monic(p: Coeffs) -> Coeffs:
    if not p:
        return ()
    return tuple(c / p[-1] for c in p)


def gcd(p: Coeffs, q: Coeffs) -> Coeffs:
    """Monic gcd over Q via the Euclidean algorithm."""
    a, b = p, q
    while b:
        a, b = b, divmod_poly(a, b)[1]
    return monic(a)


def squarefree_part(p: Coeffs) -> Coeffs:
    if degree(p) <= 0:
        return monic(p)
    return monic(divmod_poly(p, gcd(p, derivative(p)))[0])


def strip_origin_root(p: Coeffs) -> Coeffs:
    """Divide out the highest power of t, leaving a poly with non-zero constant term."""
    k = 0
    while k < len(p) and p[k] == 0:
        k += 1
    return make(p[k:])


def to_integer(p: Coeffs) -> tuple[int, ...]:
    """Clear denominators and content; result is primitive with positive leading
    coefficient (empty tuple for zero)."""
    if not p:
        return ()
    lcm = 1
    for c in p:
        lcm = lcm * c.denominator // _int_gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in p]
    content = 0
    for v in ints:
        content = _int_gcd(content, abs(v))
    ints = [v // content for v in ints]
    if ints[-1] < 0:
        ints = [-v for v in ints]
    return tuple(ints)


_t = sympy.Symbol("t")


def factor_rational(p: Coeffs) -> list[tuple[Coeffs, int]]:
    """Irreducible factorization over Q, constants dropped.

    Returns (monic factor, multiplicity) pairs sorted by (degree, coefficients),
    so Galois orbits of roots can be read off exactly.
    """
    if degree(p) <= 0:
        return []
    expr = sum(sympy.Rational(c.numerator, c.denominator) * _t**i for i, c in enumerate(p))
    _, factors = sympy.Poly(expr, _t, domain="QQ").factor_list()
    out = []
    for fac, mult in factors:
        coeffs = make([Fraction(c.p, c.q) for c in reversed(fac.all_coeffs())])
        out.append((monic(coeffs), int(mult)))
    out.sort(key=lambda fm: (degree(fm[0]), fm[0]))
    return out
