"""Dense univariate polynomials over Z and F_p, and factoring over Q.

A polynomial is a sequence of ints in ascending degree with no trailing
zeros; the zero polynomial is empty.  Rational coefficients enter only
through ``to_integer``, which takes the primitive integer multiple.  The gcd
is the heuristic gcd of Char, Geddes and Gonnet; ``factor_rational`` runs
Yun's squarefree decomposition on it, then Zassenhaus's algorithm --
factoring mod p, Hensel lifting, recombination.  Everything here is exact --
no floats anywhere; the random splits mod p use a fixed seed and cannot
change a result.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd as _int_gcd, isqrt, lcm as _int_lcm
from random import Random


def degree(p) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(p) - 1


def to_integer(p) -> tuple[int, ...]:
    """The primitive integer multiple, with positive leading coefficient, of
    the polynomial with rational coefficients p (ascending degree, trailing
    zeros allowed); the empty tuple for zero."""
    p = _trim(list(p))
    if not p:
        return ()
    scale = _int_lcm(*(c.denominator for c in p))
    ints = [c.numerator * (scale // c.denominator) for c in p]
    content = zz_content(ints)
    return tuple(v // content for v in ints)


def monic_key(f) -> tuple:
    """Sort key of a non-zero polynomial: its degree, then the coefficients
    of its monic multiple, so that rational multiples of one polynomial
    share a key."""
    return len(f) - 1, tuple(Fraction(c, f[-1]) for c in f)


# -- integer polynomials -------------------------------------------------------
#
# Lists of ints in ascending degree with no trailing zeros; [] is zero.  Exact
# factoring over Q runs here, on the primitive integer multiple.


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def zz_add(*terms: list) -> list:
    out = [0] * max(map(len, terms))
    for a in terms:
        for i, c in enumerate(a):
            out[i] += c
    return _trim(out)


def zz_sub(a: list, b: list) -> list:
    return zz_add(a, [-c for c in b])


def zz_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def zz_derivative(a: list) -> list:
    return [k * c for k, c in enumerate(a)][1:]


def zz_content(a: list) -> int:
    """gcd of the coefficients, with the sign of the leading one."""
    c = 0
    for v in a:
        c = _int_gcd(c, v)
    return -c if a and a[-1] < 0 else c


def zz_divexact(a: list, b: list):
    """a / b in Z[t] if b divides a there, else None; b must be non-zero."""
    db = len(b) - 1
    if len(a) <= db:
        return None if a else []
    r, lead = list(a), b[-1]
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[i + db], lead)
        if rem:
            return None
        q[i] = c
        if c:
            for j in range(db):
                r[i + j] -= c * b[j]
    return None if any(r[:db]) else q


def zz_eval(a: list, x: int) -> int:
    """Horner's rule, with a run of zero coefficients taken as one power of x."""
    acc, last = 0, len(a)
    for i in range(len(a) - 1, -1, -1):
        if a[i]:
            acc = acc * x ** (last - i) + a[i]
            last = i
    return acc * x**last


def zz_interpolate(v: int, xi: int) -> list:
    """The polynomial whose symmetric xi-adic digits spell v, so that
    h(xi) == v and every coefficient lies in (-xi/2, xi/2]."""
    out = []
    while v:
        d = v % xi
        if d > xi // 2:
            d -= xi
        out.append(d)
        v = (v - d) // xi
    return out


def next_xi(xi: int) -> int:
    """The next evaluation point of the heuristic gcd, as in Char, Geddes and
    Gonnet (J. Symbolic Comput. 7, 1989): it grows by about xi^(1/4)."""
    return max(xi + 1, xi * 73794 * isqrt(isqrt(xi)) // 27011)


def gcd(a: list, b: list) -> tuple[list, list, list]:
    """(h, a/h, b/h) with h = gcd(a, b) in Z[t], positive leading coefficient.

    Heuristic gcd (Char-Geddes-Gonnet): the integer gcd of a(xi) and b(xi),
    read back as a polynomial in base xi, is the gcd once its primitive part
    divides both a and b and xi exceeds twice the smaller coefficient norm.
    Each candidate is verified by exact division, and xi grows until one
    passes, so the result is always exact.
    """
    if not b or not a:
        h = a or b
        sign = -1 if h and h[-1] < 0 else 1
        return [sign * v for v in h], ([sign] if a else []), ([sign] if b else [])
    ca, cb = zz_content(a), zz_content(b)
    c = _int_gcd(ca, cb)
    pa, pb = [v // ca for v in a], [v // cb for v in b]
    if len(pa) == 1 or len(pb) == 1:
        return [c], [v // c for v in a], [v // c for v in b]
    xi = 2 * min(max(map(abs, pa)), max(map(abs, pb))) + 29
    while True:
        h = zz_interpolate(_int_gcd(zz_eval(pa, xi), zz_eval(pb, xi)), xi)
        g = zz_content(h)
        h = [v // g for v in h]
        qa = zz_divexact(pa, h) if h else None
        qb = zz_divexact(pb, h) if qa is not None else None
        if qb is not None:
            return [c * v for v in h], [v * ca // c for v in qa], [v * cb // c for v in qb]
        xi = next_xi(xi)


def yun(f: list, gcd=gcd, derivative=zz_derivative, sub=zz_sub) -> list[tuple[list, int]]:
    """Yun's squarefree decomposition (SYMSAC 1976) of f, primitive over a
    ring where ``gcd`` returns (gcd, cofactor, cofactor): the parts a_i of
    degree >= 1 with f = unit * prod a_i^i, as (a_i, i) by increasing i.
    Elements are coefficient lists in the main variable, so the same loop
    serves Z[t] and Z[x][y]."""
    out = []
    _, b, c = gcd(f, derivative(f))
    i = 1
    while len(b) > 1:
        a, b, c = gcd(b, sub(c, derivative(b)))
        if len(a) > 1:
            out.append((a, i))
        i += 1
    return out


# -- polynomials over F_p --------------------------------------------------------
#
# Lists of residues in [0, p) in ascending degree, no trailing zeros.


def _fp_sub(a: list, b: list, p: int) -> list:
    return _trim([c % p for c in zz_sub(a, b)])


def _fp_mul(a: list, b: list, p: int) -> list:
    return _trim([c % p for c in zz_mul(a, b)])


def _fp_divmod(a: list, b: list, p: int) -> tuple[list, list]:
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + db] * inv % p
        q[i] = c
        if c:
            for j in range(db):
                r[i + j] = (r[i + j] - c * b[j]) % p
    return _trim(q), _trim(r[:db])


def _fp_monic(a: list, p: int) -> list:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _fp_gcd(a: list, b: list, p: int) -> list:
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    return _fp_monic(a, p) if a else a


def _fp_gcdex(a: list, b: list, p: int) -> tuple[list, list]:
    """(s, t) with s*a + t*b == 1 for coprime a, b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _fp_sub(s0, zz_mul(q, s1), p)
        t0, t1 = t1, _fp_sub(t0, zz_mul(q, t1), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _fp_powmod(a: list, e: int, m: list, p: int) -> list:
    out, a = [1], _fp_divmod(a, m, p)[1]
    while e:
        if e & 1:
            out = _fp_divmod(_fp_mul(out, a, p), m, p)[1]
        e >>= 1
        if e:
            a = _fp_divmod(_fp_mul(a, a, p), m, p)[1]
    return out


def _fp_ddf(f: list, p: int) -> list[tuple[list, int]]:
    """Distinct-degree factorization of a monic squarefree f: (g, d) with g
    the product of all irreducible factors of degree d."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _fp_powmod(h, p, f, p)
        g = _fp_gcd(f, _fp_sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _fp_divmod(f, g, p)[0]
            h = _fp_divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _fp_edf(g: list, d: int, p: int, rng) -> list[list]:
    """Cantor-Zassenhaus (Math. Comp. 36, 1981): split a monic product of
    irreducible factors of degree d, for odd p."""
    if len(g) - 1 == d:
        return [g]
    e = (p**d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        if len(a) < 2:
            continue
        h = _fp_gcd(g, _fp_sub(_fp_powmod(a, e, g, p), [1], p), p)
        if 1 < len(h) < len(g):
            return _fp_edf(h, d, p, rng) + _fp_edf(_fp_divmod(g, h, p)[0], d, p, rng)


# -- factoring over Z ----------------------------------------------------------------


def _primes():
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


PRIMES_TRIED = 3  # squarefree reductions compared before Zassenhaus lifts one


def _hensel_step(m, f, g, h, s, t):
    """One quadratic Hensel step (von zur Gathen-Gerhard, Algorithm 15.10):
    from f = g*h, s*g + t*h = 1 mod m with h monic to the same mod m^2."""
    M = m * m

    def red(a):
        return _trim([c % M for c in a])

    e = red(zz_sub(f, zz_mul(g, h)))
    q, r = _fp_divmod(red(zz_mul(s, e)), h, M)
    g2 = red(zz_add(g, zz_mul(t, e), zz_mul(q, g)))
    h2 = red(zz_add(h, r))
    b = red(zz_sub(zz_add(zz_mul(s, g2), zz_mul(t, h2)), [1]))
    c, d = _fp_divmod(red(zz_mul(s, b)), h2, M)
    s2 = red(zz_sub(s, d))
    t2 = red(zz_sub(t, zz_add(zz_mul(t, b), zz_mul(c, g2))))
    return g2, h2, s2, t2


def _hensel_lift(f, factors, p, bound):
    """Lift f = lc(f) * prod(factors) mod p, the factors monic and pairwise
    coprime, to the same identity mod m = p^(2^k) > bound along a balanced
    factor tree (von zur Gathen-Gerhard, Algorithm 15.17).  Returns the
    lifted monic factors and m."""
    if len(factors) == 1:
        m = p
        while m <= bound:
            m *= m
        inv = pow(f[-1], -1, m)
        return [[c * inv % m for c in f]], m
    k = len(factors) // 2
    g = [f[-1] % p]
    for fac in factors[:k]:
        g = _fp_mul(g, fac, p)
    h = [1]
    for fac in factors[k:]:
        h = _fp_mul(h, fac, p)
    s, t = _fp_gcdex(g, h, p)
    m = p
    while m <= bound:
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m *= m
    left, _ = _hensel_lift(g, factors[:k], p, bound)
    right, _ = _hensel_lift(h, factors[k:], p, bound)
    return left + right, m


def _symmetric(a, m):
    half = m // 2
    return _trim([c - m if c > half else c for c in (v % m for v in a)])


def _primitive(a):
    c = zz_content(a)
    return [v // c for v in a]


def _recombine(f, lifted, m, bound):
    """Zassenhaus recombination: the products of subsets of the lifted
    factors that are true factors of f, smallest subsets first.  A candidate
    G and its cofactor H are accepted when |G|_1 * |H|_1 <= bound, which
    forces G*H == lc(f)*f because m > 2*bound (Mignotte's bound)."""
    out, rest, size = [], list(range(len(lifted))), 1
    while 2 * size <= len(rest):
        for subset in map(set, combinations(rest, size)):
            lead = f[-1]
            const = lead
            for i in subset:
                const = const * lifted[i][0] % m
            const = const - m if const > m // 2 else const
            if not const or (lead * f[0]) % const:
                continue
            g, h = [lead], [lead]
            for i in rest:
                if i in subset:
                    g = _symmetric(zz_mul(g, lifted[i]), m)
                else:
                    h = _symmetric(zz_mul(h, lifted[i]), m)
            if sum(map(abs, g)) * sum(map(abs, h)) <= bound:
                out.append(_primitive(g))
                f = _primitive(h)
                rest = [i for i in rest if i not in subset]
                break
        else:
            size += 1
    return out + [f]


def _zassenhaus(f: list) -> list[list]:
    """Irreducible factors over Z of a primitive squarefree f, deg f >= 2,
    f(0) != 0 (Zassenhaus, J. Number Theory 1, 1969).

    Among the first PRIMES_TRIED odd primes that keep f squarefree and its
    degree, the one with the fewest modular factors is used; the factors
    are split by distinct-degree factoring and Cantor-Zassenhaus with a fixed
    seed, Hensel-lifted above twice Mignotte's bound and recombined."""
    n = len(f) - 1
    best = None
    primes = _primes()
    tried = 0
    while tried < PRIMES_TRIED:
        p = next(primes)
        if f[-1] % p == 0:
            continue
        fp = _fp_monic([c % p for c in f], p)
        if len(_fp_gcd(fp, _trim([c % p for c in zz_derivative(fp)]), p)) > 1:
            continue
        tried += 1
        ddf = _fp_ddf(fp, p)
        count = sum((len(g) - 1) // d for g, d in ddf)
        if count == 1:
            return [f]
        if best is None or count < best[0]:
            best = (count, p, ddf)
    _, p, ddf = best
    rng = Random(0)
    factors = [fac for g, d in ddf for fac in _fp_edf(g, d, p, rng)]
    bound = 2**n * (isqrt(sum(c * c for c in f)) + 1) * abs(f[-1])
    lifted, m = _hensel_lift(f, factors, p, 2 * bound)
    return _recombine(f, lifted, m, bound)


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Phi_d as (t^d - 1) divided exactly by Phi_e for every proper divisor e."""
    q = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            q = zz_divexact(q, list(_cyclotomic(e)))
    return tuple(q)


def _factor_squarefree(f: list) -> list[list]:
    """Irreducible factors over Z of a primitive squarefree f with f(0) != 0."""
    n = len(f) - 1
    if n == 1:
        return [f]
    if n == 2:
        c, b, a = f
        disc = b * b - 4 * a * c
        root = isqrt(disc) if disc >= 0 else -1
        if root * root != disc:
            return [f]
        return [_primitive([b - root, 2 * a]), _primitive([b + root, 2 * a])]
    if abs(f[0]) == f[-1] == 1 and not any(f[1:-1]):
        # t^n - 1 = prod of Phi_d over d | n; t^n + 1 over d | 2n, d not | n
        orders = [d for d in range(1, 2 * n + 1) if (2 * n) % d == 0]
        if f[0] < 0:
            orders = [d for d in orders if n % d == 0]
        else:
            orders = [d for d in orders if n % d]
        return [list(_cyclotomic(d)) for d in orders]
    return _zassenhaus(f)


def factor_rational(p) -> list[tuple[tuple[int, ...], int]]:
    """Irreducible factorization over Q of a polynomial with rational
    coefficients, constants dropped.

    Returns (factor, multiplicity) pairs, each factor a primitive integer
    tuple with positive leading coefficient, sorted by ``monic_key`` so
    Galois orbits of roots can be read off exactly.  The power of t is split
    off, Yun's algorithm gives the squarefree parts over Z, and each part is
    factored by ``_factor_squarefree``: quadratics by their discriminant,
    t^n +- 1 into cyclotomic polynomials, everything else by Zassenhaus.
    """
    f = list(to_integer(p))
    if len(f) <= 1:
        return []
    k = 0
    while not f[k]:
        k += 1
    out = [((0, 1), k)] if k else []
    f = f[k:]
    if len(f) > 1:
        for part, mult in yun(f):
            for fac in _factor_squarefree(_primitive(part)):
                out.append((tuple(fac), mult))
    out.sort(key=lambda fm: monic_key(fm[0]))
    return out
