"""Sparse polynomials in x, y over Z, Newton polygons and germ tests.

The ``Poly`` type is the input data model for the whole package: germs of
plane curves are parsed into it, the Newton polygon is read off its support,
and both resolution pipelines consume it.  Coefficients are Python ints and
are never divided except by a common factor: a germ's zero set does not
change under scaling, so rational input is cleared to an integer multiple
once, at parse time.  A polynomial is a canonical map from exponent pairs
to non-zero coefficients.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm

from . import unipoly
from .errors import DegreeTooLarge, NonVanishingAtOrigin, ParseError, UnknownVariable


class Poly:
    """Immutable sparse polynomial in x, y over Z.

    ``terms`` maps exponent pairs (i, j), for x^i*y^j, to non-zero ``int``
    coefficients; two polynomials are equal iff their term maps are equal, so
    the representation is canonical by construction.  The constructor takes
    an ``int`` or an integral ``Fraction`` per term and raises ``ValueError``
    on a non-integral coefficient or an exponent vector that is not a pair.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean = {}
        for exps, coeff in dict(terms).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != 2 or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent pair {exps}")
            if type(coeff) is not int:
                coeff = Fraction(coeff)
                if coeff.denominator != 1:
                    raise ValueError(f"coefficient {coeff} is not an integer")
                coeff = coeff.numerator
            if coeff:
                clean[exps] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _from_canonical(cls, terms: dict) -> "Poly":
        """Wrap a term map that is already canonical (exponent pairs to
        non-zero ints), skipping the checks of the public constructor."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- ring structure ----------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls._from_canonical({})

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls({(0, 0): c})

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for e, c in other.terms.items():
            c += terms.get(e, 0)
            if c:
                terms[e] = c
            else:
                del terms[e]
        return Poly._from_canonical(terms)

    def __neg__(self) -> "Poly":
        return Poly._from_canonical({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        terms = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly._from_canonical({e: c for e, c in terms.items() if c})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = Poly.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Poly({self.to_text()!r})"

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.terms)

    def coefficient(self, exps) -> int:
        return self.terms.get(tuple(exps), 0)

    def constant_term(self) -> int:
        return self.terms.get((0, 0), 0)

    def origin_multiplicity(self) -> int:
        """Order of vanishing at the origin (min total degree); -1 for zero."""
        if not self.terms:
            return -1
        return min(sum(e) for e in self.terms)

    def min_exponent(self, var: int) -> int:
        """Largest k with x_var^k dividing the polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial")
        return min(e[var] for e in self.terms)

    def substitute_shift(self, var: int, offset) -> "Poly":
        """A positive integer multiple of f(..., x_var + offset, ...).

        With offset = p/q in lowest terms (q > 0) and d = deg_var f, the result
        is q^d * f(..., x_var + p/q, ...), divided by its content when q > 1;
        for integral offsets it is the exact shift.  The term c*x^k (in x_var)
        contributes c*C(k, j)*p^(k-j)*q^(d-k+j) to x^j, since
        q^d * (x + p/q)^k = q^(d-k) * (q*x + p)^k, so every coefficient is an
        integer and none is divided except by the common content.

        The result is lambda * f(..., x_var + p/q, ...) with the constant
        lambda = q^d / content > 0.  Scaling by a non-zero constant keeps the
        zero set and the support, hence the origin multiplicity, the vanishing
        of every restriction and the Newton polygon; and a positive scale
        leaves ``restrict_to_zero`` unchanged, since it returns the primitive
        multiple with positive leading coefficient.  The blowup charts commute
        with scaling, so the numerical data N and nu, every incidence and
        every Euler characteristic computed downstream are those of the exact
        shift.  The offset itself is not rescaled, so the next chart's roots,
        and the centres they name, are unchanged too.
        """
        offset = Fraction(offset)
        if offset == 0 or not self.terms:
            return self
        p, q = offset.numerator, offset.denominator
        d = max(e[var] for e in self.terms)
        p_pow = [p**i for i in range(d + 1)]
        q_pow = [q**i for i in range(d + 1)]
        terms = {}
        for e, c in self.terms.items():
            k = e[var]
            ne = list(e)
            binom = 1
            for j in range(k, -1, -1):
                ne[var] = j
                key = tuple(ne)
                terms[key] = terms.get(key, 0) + c * binom * p_pow[k - j] * q_pow[d - k + j]
                binom = binom * j // (k - j + 1)
        terms = {e: c for e, c in terms.items() if c}
        if q > 1:
            content = gcd(*terms.values())
            if content > 1:
                terms = {e: c // content for e, c in terms.items()}
        return Poly._from_canonical(terms)

    def restrict_to_zero(self, var: int) -> tuple[int, ...]:
        """Set x_var = 0; return the primitive integer multiple of the other
        variable's coefficient list."""
        other = 1 - var
        coeffs = {}
        for e, c in self.terms.items():
            if e[var] == 0:
                coeffs[e[other]] = c
        if not coeffs:
            return ()
        out = [0] * (max(coeffs) + 1)
        for k, c in coeffs.items():
            out[k] = c
        return unipoly.to_integer(out)

    def to_text(self, variables=("x", "y")) -> str:
        """Deterministic text form, re-parsable by :func:`parse_poly`."""
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            c = self.terms[e]
            factors = []
            for name, k in zip(variables, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            pieces.append(("- " if c < 0 else "+ ") + body)
        head = pieces[0]
        head = "-" + head[2:] if head.startswith("- ") else head[2:]
        return " ".join([head] + pieces[1:])


# -- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\s*/\s*\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    pos, tokens = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            bad = len(text) - len(text[pos:].lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if m.lastgroup == "number":
            literal = m.group("number").replace(" ", "")
            if "/" in literal:
                num, den = literal.split("/")
                if int(den) == 0:
                    raise ParseError("zero denominator in rational literal", m.start())
                value = Fraction(int(num), int(den))
            else:
                value = Fraction(int(literal))
            tokens.append(("number", value, m.start("number")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


def _scale(f: Poly, k: int) -> Poly:
    """k*f for a non-zero integer k."""
    if k == 1:
        return f
    return Poly._from_canonical({e: c * k for e, c in f.terms.items()})


class _Parser:
    """Recursive-descent parser for the grammar

        expr   := ['-'] term (('+' | '-') term)*
        term   := factor ('*' factor)*
        factor := atom ['^' number]
        atom   := number | name | '(' expr ')'

    '^' binds tighter than '*', which binds tighter than '+'/'-'; implicit
    multiplication is not part of the grammar.  Each '(' costs five stack
    frames, so nesting deeper than MAX_NESTING is a ParseError, far below
    Python's recursion limit.

    Every value is a pair (g, d) of an integer Poly g and a positive integer
    d, standing for g/d; a rational literal is its own pair and the
    operations keep both parts integral.
    """

    MAX_NESTING = 100

    def __init__(self, tokens, x, y):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.vars = {x: (1, 0), y: (0, 1)}

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> tuple[Poly, int]:
        result = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return result

    def expr(self) -> tuple[Poly, int]:
        acc, d = self.signed_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs, d_rhs = self.signed_term()
                common = lcm(d, d_rhs)
                acc, rhs = _scale(acc, common // d), _scale(rhs, common // d_rhs)
                acc, d = (acc + rhs if val == "+" else acc - rhs), common
            else:
                return acc, d

    def signed_term(self) -> tuple[Poly, int]:
        negate = False
        kind, val, _ = self.peek()
        while kind == "op" and val == "-":
            self.advance()
            negate = not negate
            kind, val, _ = self.peek()
        t, d = self.term()
        return (-t if negate else t), d

    def term(self) -> tuple[Poly, int]:
        acc, d = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                rhs, d_rhs = self.factor()
                acc, d = acc * rhs, d * d_rhs
            else:
                return acc, d

    def factor(self) -> tuple[Poly, int]:
        base, d = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, pos = self.advance()
            if kind != "number" or val.denominator != 1 or val < 0:
                raise ParseError("exponent must be a non-negative integer", pos)
            return base ** int(val), d ** int(val)
        return base, d

    def atom(self) -> tuple[Poly, int]:
        kind, val, pos = self.advance()
        if kind == "number":
            return Poly.constant(val.numerator), val.denominator
        if kind == "name":
            if val not in self.vars:
                raise UnknownVariable(f"unknown variable {val!r}", pos)
            return Poly._from_canonical({self.vars[val]: 1}), 1
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > self.MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {self.MAX_NESTING}", pos
                )
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError("expected a number, variable or '('", pos)


def parse_poly(text: str, variables=("x", "y")) -> Poly:
    """Parse polynomial text in two named variables into a canonical Poly.

    The text denotes f with rational coefficients; the result is L*f, where L
    is the least common multiple of the denominators of f's coefficients, so
    the smallest positive integer multiple of f and f itself when every
    coefficient is an integer.  With f = g/d from the parser, L = d/c for
    c = gcd(content(g), d), and L*f = g/c."""
    variables = tuple(variables)
    if len(variables) != 2 or variables[0] == variables[1]:
        raise ValueError("a germ needs two distinct variable names")
    g, d = _Parser(_tokenize(text), *variables).parse()
    c = gcd(d, *g.terms.values())
    if c == 1:
        return g
    return Poly._from_canonical({e: v // c for e, v in g.terms.items()})


# -- Newton polygon --------------------------------------------------------


class Segment:
    """A compact edge of a local Newton polygon, from ``points[0]`` to
    ``points[1]`` (x descending), with its primitive inner normal (a, b) and
    value N = min a*i + b*j over the support."""

    __slots__ = ("points", "normal", "value")

    def __init__(self, points, normal, value):
        self.points = tuple(points)
        self.normal = normal
        self.value = value

    def __repr__(self):
        return f"Segment({self.points[0]}..{self.points[1]}, normal={self.normal}, N={self.value})"

    def lattice_points(self):
        """All lattice points on the segment, endpoint to endpoint."""
        (x1, y1), (x2, y2) = self.points
        g = gcd(abs(x2 - x1), abs(y2 - y1))
        dx, dy = (x2 - x1) // g, (y2 - y1) // g
        return [(x1 + j * dx, y1 + j * dy) for j in range(g + 1)]


class NewtonPolygon:
    """Convex-hull data of supp(f) + R^2_{>=0} for a germ.

    ``vertices`` runs from the x-extreme vertex to the y-extreme vertex
    (x descending); ``segments`` joins consecutive vertices in the same sweep
    order (normals (a, b) by increasing a/b).
    """

    def __init__(self, vertices, segments):
        self.vertices = tuple(tuple(v) for v in vertices)
        self.segments = tuple(segments)

    def __repr__(self):
        return f"NewtonPolygon(vertices={list(self.vertices)})"


def _require_local_germ(f: Poly):
    if f.is_zero():
        raise NonVanishingAtOrigin("the zero polynomial is not a germ")
    if f.constant_term() != 0:
        raise NonVanishingAtOrigin("germ does not vanish at the origin")


def newton_polygon_local(f: Poly) -> NewtonPolygon:
    """Newton polygon at the origin of a germ.

    Only points not dominated componentwise by another support point can be
    vertices; among those the convex chain towards the origin survives.
    """
    _require_local_germ(f)
    pts = f.support()
    staircase = [
        p for p in pts
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts)
    ]
    staircase.sort(key=lambda p: (-p[0], p[1]))
    chain: list[tuple[int, int]] = []
    for p in staircase:
        while len(chain) >= 2:
            a, b = chain[-2], chain[-1]
            cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if cross >= 0:  # b is inside or collinear: not a vertex
                chain.pop()
            else:
                break
        chain.append(p)
    segments = []
    for p, q in zip(chain, chain[1:]):
        a, b = q[1] - p[1], p[0] - q[0]  # inner normal; both positive on this chain
        g = gcd(a, b)
        a, b = a // g, b // g
        value = a * p[0] + b * p[1]
        assert all(a * i + b * j >= value for (i, j) in pts)
        segments.append(Segment([p, q], (a, b), value))
    return NewtonPolygon(chain, segments)


def segment_face_coeffs(f: Poly, seg: Segment) -> tuple[int, ...]:
    """Dehomogenization of the face polynomial of a segment, as its primitive
    integer multiple.

    Walking the lattice points of the segment from the x-extreme end gives the
    coefficient list; the result always has a non-zero constant term because
    segment endpoints are support points.
    """
    return unipoly.to_integer([f.coefficient(p) for p in seg.lattice_points()])


def is_nondegenerate_curve(f: Poly) -> bool:
    """Newton non-degeneracy for germs, decided exactly.

    Vertices are monomials and never obstruct.  A segment obstructs iff its
    dehomogenized face polynomial g has a repeated non-zero root.  The
    segment's endpoints are support points, so g(0) != 0 and every repeated
    root is non-zero: the test is whether gcd(g, g') is non-constant.
    """
    for seg in newton_polygon_local(f).segments:
        g = segment_face_coeffs(f, seg)
        if len(unipoly.gcd(g, unipoly.zz_derivative(g))[0]) > 1:
            return False
    return True


# -- reducedness and square-free structure ----------------------------------
#
# Z[x][y] is held as lists over the power of y of unipoly's integer
# polynomials in x, with no trailing zeros.  These rows are germ_factors'
# private working form: a Poly is converted into rows and back only there.

# No list longer than this can be allocated: its pointer array would need
# more than sys.maxsize bytes, and CPython refuses it at once.
_MAX_ROW = sys.maxsize // 8


def _zx_sub(a: list, b: list) -> list:
    out = [
        unipoly.zz_sub(a[j] if j < len(a) else [], b[j] if j < len(b) else [])
        for j in range(max(len(a), len(b)))
    ]
    while out and not out[-1]:
        out.pop()
    return out


def _zx_derivative(a: list) -> list:
    """d/dy."""
    return [[k * c for c in co] for k, co in enumerate(a)][1:]


def _zx_divexact(a: list, b: list):
    """a / b in Z[x][y] if b divides a there, else None; b must be non-zero."""
    db = len(b) - 1
    if len(a) <= db:
        return None if a else []
    r, lead = list(a), b[-1]
    q = [[]] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = unipoly.zz_divexact(r[i + db], lead)
        if c is None:
            return None
        q[i] = c
        if c:
            for j in range(db):
                r[i + j] = unipoly.zz_sub(r[i + j], unipoly.zz_mul(c, b[j]))
    return None if any(r[:db]) else q


def _zx_gcd(a: list, b: list) -> tuple[list, list, list]:
    """(h, a/h, b/h) with h = gcd(a, b) in Z[x][y].

    Heuristic gcd (Char-Geddes-Gonnet, J. Symbolic Comput. 7, 1989): the
    univariate gcd of a(xi, y) and b(xi, y), with each coefficient read back
    in base xi, is the gcd once its primitive part divides a and b and xi
    exceeds twice the smaller coefficient norm.  Candidates are verified by
    exact division and xi grows until one passes."""
    if not a or not b:
        h = a or b
        sign = -1 if h and h[-1][-1] < 0 else 1
        return [[sign * v for v in co] for co in h], ([[sign]] if a else []), ([[sign]] if b else [])
    ca = unipoly.zz_content([v for co in a for v in co])
    cb = unipoly.zz_content([v for co in b for v in co])
    c = gcd(ca, cb)
    pa = [[v // ca for v in co] for co in a]
    pb = [[v // cb for v in co] for co in b]
    xi = 2 * min(max(abs(v) for co in p for v in co) for p in (pa, pb)) + 29
    while True:
        image, _, _ = unipoly.gcd(
            [unipoly.zz_eval(co, xi) for co in pa], [unipoly.zz_eval(co, xi) for co in pb]
        )
        h = [unipoly.zz_interpolate(v, xi) for v in image]
        g = unipoly.zz_content([v for co in h for v in co])
        h = [[v // g for v in co] for co in h]
        qa = _zx_divexact(pa, h)
        qb = _zx_divexact(pb, h) if qa is not None else None
        if qb is not None:
            return (
                [[c * v for v in co] for co in h],
                [[v * ca // c for v in co] for co in qa],
                [[v * cb // c for v in co] for co in qb],
            )
        xi = unipoly.next_xi(xi)


def germ_factors(f: Poly) -> list[tuple[Poly, int]]:
    """Squarefree parts of f that vanish at the origin, with their
    multiplicities, by increasing multiplicity.

    The part of multiplicity m is the product of the irreducible factors of f
    over Q that occur exactly m times (Yun's squarefree decomposition), so it
    may hold several branches and a unit cofactor h with h(0) != 0.  Parts not
    through the origin are local units and play no role in the germ.

    f is taken to Z[x][y]; its content in Z[x] is decomposed by univariate
    Yun, its primitive part by Yun over Z[x][y] with heuristic gcds, and the
    content's part of multiplicity m joins the primitive part's of the same
    multiplicity.  Parts are primitive over Z, so they equal the parts over Q
    up to a constant factor.
    """
    _require_local_germ(f)
    ints = dict(zip(f.terms, unipoly.to_integer(tuple(f.terms.values()))))
    width = {}
    for i, j in ints:
        width[j] = max(width.get(j, 0), i + 1)
    longest = max(1 + max(width), *width.values())
    if longest > _MAX_ROW:
        raise DegreeTooLarge(
            f"degree {longest - 1} in one variable is too large: the squarefree "
            f"decomposition needs a dense row of {longest} coefficients"
        )
    rows = [[0] * width.get(j, 0) for j in range(1 + max(width))]
    for (i, j), c in ints.items():
        rows[j][i] = c
    content = []
    for co in rows:
        content = unipoly.gcd(content, co)[0]
    primitive = [unipoly.zz_divexact(co, content) for co in rows]
    parts = {m: [a] for a, m in unipoly.yun(content)}
    for a, m in unipoly.yun(primitive, _zx_gcd, _zx_derivative, _zx_sub):
        parts[m] = [unipoly.zz_mul(co, parts[m][0]) for co in a] if m in parts else a
    out = []
    for m in sorted(parts):
        part = parts[m]
        if not part[0] or not part[0][0]:  # vanishes at the origin
            terms = {(i, j): c for j, co in enumerate(part) for i, c in enumerate(co) if c}
            out.append((Poly._from_canonical(terms), m))
    return out
