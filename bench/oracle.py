"""Closed forms and formulas that check topzeta's outputs.

Nothing here imports ``topzeta``: every value is recomputed from the input
germ or document with plain ``fractions.Fraction`` arithmetic, so a fault in
the program cannot hide behind the same fault in its check.

Rational functions of ``s`` are kept unreduced as ``Ratio(num, roots)``: a
numerator polynomial over Q (ascending coefficients) over the monic product
of ``(s - r)^k`` for the roots ``r`` in ``roots``.  Two values are compared
by cross-multiplication, and pole orders are read as valuations, so no
polynomial gcd is ever needed.

Sources of the formulas:

* Denef, Loeser, "Caracteristiques d'Euler-Poincare, fonctions zeta locales et
  modifications analytiques", J. AMS 5 (1992), Thm 5.3(ii): the local
  topological zeta function of a germ that is non-degenerate with respect to
  its Newton polygon;
* Kouchnirenko, "Polyedres de Newton et nombres de Milnor", Invent. Math. 32
  (1976): mu = 2V - a - b + 1 for convenient non-degenerate plane curves;
* the product rule Z(f(x) g(y)) = Z(f) Z(g) for germs in separate variables
  (the product of two embedded resolutions resolves the product germ).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd

# -- dense univariate polynomials over Q, ascending coefficients -------------


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def poly_add(p, q):
    n = max(len(p), len(q))
    return _trim(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def poly_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def root_order(p, r):
    """Multiplicity of r as a root of the non-zero polynomial p."""
    p = [Fraction(c) for c in _trim(p)]
    k = 0
    while len(p) > 1 and poly_eval(p, r) == 0:
        # synthetic division by (s - r)
        q = [Fraction(0)] * (len(p) - 1)
        acc = Fraction(0)
        for i in range(len(p) - 1, 0, -1):
            acc = acc * r + p[i]
            q[i - 1] = acc
        p = q
        k += 1
    return k


def _linear_power(r, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = poly_mul(out, [-r, Fraction(1)])
    return out


class Ratio:
    """num(s) / prod (s - r)^k, unreduced."""

    __slots__ = ("num", "roots")

    def __init__(self, num, roots=None):
        self.num = _trim(Fraction(c) for c in num)
        self.roots = Counter(roots or {})

    def den(self):
        out = [Fraction(1)]
        for r, k in sorted(self.roots.items()):
            out = poly_mul(out, _linear_power(r, k))
        return out

    def __mul__(self, other):
        return Ratio(poly_mul(self.num, other.num), self.roots + other.roots)

    def __add__(self, other):
        common = self.roots | other.roots  # max multiplicity per root
        num = []
        for term in (self, other):
            lift = [Fraction(1)]
            for r, k in common.items():
                lift = poly_mul(lift, _linear_power(r, k - term.roots[r]))
            num = poly_add(num, poly_mul(term.num, lift))
        return Ratio(num, common)

    def equals(self, num, den):
        """True iff self == num/den for integer coefficient lists (ascending)."""
        return poly_mul(self.num, den) == poly_mul(_trim(num), self.den())

    def poles(self):
        """{location: order} of the reduced function: -valuation where > 0."""
        out = {}
        for r, k in self.roots.items():
            order = k - (root_order(self.num, r) if self.num else k)
            if order > 0:
                out[r] = order
        return out


def term(coeff, numerator, factors):
    """coeff * numerator(s) / prod (nu + N s) over factors [(nu, N), ...]."""
    c = Fraction(coeff)
    roots = Counter()
    for nu, N in factors:
        if N == 0:
            c /= nu
        else:
            c /= N
            roots[Fraction(-nu, N)] += 1
    return Ratio([c * a for a in numerator], roots)


# -- bivariate germs as {(i, j): coefficient} ---------------------------------


def bivariate_mul(f, g):
    out = {}
    for (i1, j1), a in f.items():
        for (i2, j2), b in g.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + a * b
    return {k: v for k, v in out.items() if v != 0}


def newton_vertices(f):
    """Vertices of the local Newton polygon, from the x-extreme end to the
    y-extreme end (x decreasing, y increasing)."""
    lowest = {}
    for i, j in f:
        lowest[i] = min(j, lowest.get(i, j))
    stairs = []
    for i in sorted(lowest):
        if not stairs or lowest[i] < stairs[-1][1]:
            stairs.append((i, lowest[i]))
    hull = []
    for p in stairs:
        while len(hull) >= 2:
            (ax, ay), (bx, by) = hull[-2], hull[-1]
            if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) <= 0:
                hull.pop()  # b is on or above the chord a -> p
            else:
                break
        hull.append(p)
    return hull[::-1]


def _segments(f):
    """(p, q, primitive inner normal, lattice length) per compact edge."""
    vs = newton_vertices(f)
    out = []
    for (x1, y1), (x2, y2) in zip(vs, vs[1:]):
        g = gcd(x1 - x2, y2 - y1)
        out.append(((x1, y1), (x2, y2), ((y2 - y1) // g, (x1 - x2) // g), g))
    return out


def _N(f, a):
    return min(a[0] * i + a[1] * j for i, j in f)


def is_convenient(f):
    return any(j == 0 for _, j in f) and any(i == 0 for i, _ in f)


def _remainder(a, b):
    a = list(a)
    while len(a) >= len(b):
        k = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= k * c
        a = _trim(a)
    return a


def _is_squarefree(g):
    """True iff gcd(g, g') is a constant."""
    a, b = _trim(g), _trim(i * c for i, c in enumerate(g))[1:]
    while b:
        a, b = b, _remainder(a, b)
    return len(a) == 1


def is_nondegenerate(f):
    """Newton non-degeneracy: every edge's face polynomial, dehomogenized,
    has no repeated root (its roots are all non-zero)."""
    for p, q, _, length in _segments(f):
        dx, dy = (q[0] - p[0]) // length, (q[1] - p[1]) // length
        g = [Fraction(f.get((p[0] + k * dx, p[1] + k * dy), 0)) for k in range(length + 1)]
        if not _is_squarefree(g):
            return False
    return True


def denef_loeser_zeta(f):
    """Z_top,0 of a germ non-degenerate for its Newton polygon:

        sum over vertices of mult(cone) / ((nu_l + N_l s)(nu_r + N_r s))
        - s/(s+1) * sum over edges of length / (nu + N s)

    where the vertex cone is spanned by the normals of its two neighbouring
    faces ((0,1) and (1,0) for the non-compact ones).
    """
    segs = _segments(f)
    normals = [(0, 1)] + [n for _, _, n, _ in segs] + [(1, 0)]
    total = Ratio([])
    for left, right in zip(normals, normals[1:]):
        mult = abs(left[0] * right[1] - left[1] * right[0])
        total = total + term(
            mult, [1], [(sum(left), _N(f, left)), (sum(right), _N(f, right))]
        )
    for _, _, n, length in segs:
        edge = term(-length, [0, 1], [(sum(n), _N(f, n)), (1, 1)])
        total = total + edge
    return total


def newton_lct(f):
    """min(1, nu/N) over the rays of the dual fan with N > 0, for a
    non-degenerate germ: the edge normals and the axis rays (1,0), (0,1)."""
    rays = [n for _, _, n, _ in _segments(f)] + [(1, 0), (0, 1)]
    return min([Fraction(1)] + [Fraction(sum(a), _N(f, a)) for a in rays if _N(f, a) > 0])


def kouchnirenko_mu(f):
    """2V - a - b + 1, V the area under the Newton polygon of a convenient
    germ with intercepts a (on the x axis) and b (on the y axis)."""
    vs = newton_vertices(f)
    a, b = vs[0][0], vs[-1][1]
    twice_area = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(vs, vs[1:]))
    return twice_area - a - b + 1


# -- closed forms -----------------------------------------------------------------


def brieskorn_zeta(a, b):
    """x^a + y^b with gcd(a, b) = 1:
    ((a+b-1)s + (a+b)) / ((s+1)(ab s + a + b))."""
    return term(1, [a + b, a + b - 1], [(1, 1), (a + b, a * b)])


def brieskorn_lct(a, b):
    return min(Fraction(1), Fraction(1, a) + Fraction(1, b))


def monomial_zeta(n, N):
    """x_1^N ... x_n^N: 1/(1 + N s)^n, one pole of order n at -1/N."""
    return term(1, [1], [(1, N)] * n)


def document_zeta(doc, scope):
    """The defining sum over the strata of a resolution document."""
    key = "chi_origin" if scope == "local" else "chi_total"
    data = {c["id"]: (c["nu"], c["N"]) for c in doc["components"]}
    total = Ratio([Fraction(doc.get("empty_stratum", {}).get(key, 0))])
    for st in doc["strata"]:
        chi = st.get(key, 0)
        if chi:
            total = total + term(chi, [1], [data[i] for i in st["ids"]])
    return total
