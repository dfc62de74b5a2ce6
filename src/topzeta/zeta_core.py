"""The zeta formula: resolution data -> rational functions, poles, thresholds.

A resolution of a germ (or of a global zero locus) is summarized by components
E_i carrying numerical data (N_i, nu_i) and by strata E_I° with their Euler
characteristics.  The local zeta function is

    sum over I of chi(E_I° over the origin) * prod_{i in I} 1/(nu_i + N_i s),

the global one uses the plain Euler characteristics.  All arithmetic is exact;
rational functions are kept in a unique canonical form so equality of values
is equality of representations.

Every factor nu_i + N_i s is g_i times the primitive linear form
(nu_i/g_i) + (N_i/g_i) s with g_i = gcd(nu_i, N_i), so the sum is carried in
integers over a denominator kept factored into those forms.  Cancelling a form
is an exact integer division, and the running sum reaches lowest terms
without any polynomial gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd as _int_gcd
from math import lcm as _int_lcm

from . import unipoly
from .errors import InvalidResolutionData, NoQualifyingComponent


@dataclass(frozen=True)
class Component:
    id: str
    N: int
    nu: int
    meets_origin_fiber: bool = True


@dataclass(frozen=True)
class Stratum:
    ids: frozenset
    chi_total: int
    chi_origin: int


@dataclass(frozen=True)
class ResolutionData:
    """Numerical data of an embedded resolution.

    ``scope`` records whether the data describes a germ over the origin
    ("local") or a global zero locus ("global"); strata not listed have
    Euler characteristic 0, and the empty stratum I = {} is carried
    explicitly (it contributes a constant to the zeta function).
    ``branch_ids`` optionally marks which components are strict-transform
    branches; pipelines fill it, file input may.
    """

    ambient_dim: int
    components: tuple
    strata: tuple
    empty_chi_total: int = 0
    empty_chi_origin: int = 0
    scope: str = "local"
    branch_ids: tuple = ()

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.ambient_dim < 1:
            raise InvalidResolutionData("ambient_dim must be positive")
        if self.scope not in ("local", "global"):
            raise InvalidResolutionData(f"unknown scope {self.scope!r}")
        ids = {c.id for c in self.components}
        if len(ids) != len(self.components):
            raise InvalidResolutionData("component ids must be unique")
        for c in self.components:
            if c.N < 1 or c.nu < 1:
                raise InvalidResolutionData(f"component {c.id}: N and nu must be >= 1")
        off_fiber = {c.id for c in self.components if not c.meets_origin_fiber}
        seen = set()
        for st in self.strata:
            if not st.ids:
                raise InvalidResolutionData("empty stratum must use the dedicated fields")
            if st.ids in seen:
                raise InvalidResolutionData(f"duplicate stratum {sorted(st.ids)}")
            seen.add(st.ids)
            if not st.ids <= ids:
                raise InvalidResolutionData(f"stratum {sorted(st.ids)} names unknown components")
            if len(st.ids) > self.ambient_dim:
                raise InvalidResolutionData(
                    f"stratum {sorted(st.ids)} has more than ambient_dim components"
                )
            if st.chi_origin != 0 and not st.ids.isdisjoint(off_fiber):
                raise InvalidResolutionData(
                    f"stratum {sorted(st.ids)} has chi_origin != 0 off the origin fiber"
                )
        if not ids.issuperset(self.branch_ids):
            raise InvalidResolutionData("branch_ids names unknown components")

    def component(self, cid: str) -> Component:
        for c in self.components:
            if c.id == cid:
                return c
        raise KeyError(cid)

    def candidate_pole_locations(self) -> list[Fraction]:
        return sorted({Fraction(-c.nu, c.N) for c in self.components}, reverse=True)

    def branch_multiplicities(self) -> list[int]:
        N = {c.id: c.N for c in self.components}
        return [N[b] for b in self.branch_ids]


class RationalFunction:
    """Ratio of integer-coefficient polynomials in s, in canonical form:
    gcd(num, den) = 1 over Q, the coefficients of num and den together have
    gcd 1, and den has positive leading coefficient.  Equality of values ==
    equality of coefficient tuples."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        # clear denominators jointly, so num / den keeps its value
        num, den = [Fraction(c) for c in num], [Fraction(c) for c in den]
        scale = _int_lcm(*(c.denominator for c in num + den))
        num, den = _integral(num, scale), _integral(den, scale)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            num, den = [0], [1]
        else:
            # the cofactors of the gcd have coprime contents (Gauss's lemma),
            # so they carry no joint content
            _, num, den = unipoly.gcd(num, den)
            if den[-1] < 0:
                num, den = [-c for c in num], [-c for c in den]
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def _from_canonical(cls, num: tuple, den: tuple) -> "RationalFunction":
        """Wrap integer tuples that are already in canonical form, skipping
        the gcd and normalisation of the public constructor."""
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls((0,), (1,))

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        c = Fraction(c)
        return cls((c.numerator,), (c.denominator,))

    def is_zero(self) -> bool:
        return self.num == (0,)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            unipoly.zz_add(
                unipoly.zz_mul(self.num, other.den), unipoly.zz_mul(other.num, self.den)
            ),
            unipoly.zz_mul(self.den, other.den),
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(tuple(-c for c in self.num), self.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            unipoly.zz_mul(self.num, other.num), unipoly.zz_mul(self.den, other.den)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def pole_order(self, location) -> int:
        """Multiplicity of the rational ``location`` as a root of the
        denominator, found by exact integer division by its primitive form."""
        loc = Fraction(location)
        form = (-loc.numerator, loc.denominator)
        den, order = self.den, 0
        while (den := _divide_form(den, form)) is not None:
            order += 1
        return order

    def __repr__(self):
        return f"RationalFunction({_poly_text(self.num)!r}, {_poly_text(self.den)!r})"

    def __str__(self):
        if self.den == (1,):
            return _poly_text(self.num)
        return f"({_poly_text(self.num)}) / ({_poly_text(self.den)})"


def _integral(coeffs: list, scale: int) -> list:
    """scale * coeffs as ints, trailing zeros dropped; scale clears every
    denominator of coeffs."""
    out = [c.numerator * (scale // c.denominator) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def _times_form(p: list, form: tuple, times: int) -> list:
    """p * (a + b s)^times on integer coefficient lists, ascending degree."""
    a, b = form
    for _ in range(times):
        out = [a * c for c in p] + [0]
        for i, c in enumerate(p):
            out[i + 1] += b * c
        p = out
    return p


def _divide_form(p, form: tuple):
    """Quotient of the non-zero integer polynomial p by the primitive form
    a + b s (b > 0), or None if the form does not divide p.  By Gauss's lemma
    the quotient of an exact division is integral, so a non-zero remainder
    modulo b at any step already proves that the form does not divide p."""
    a, b = form
    quo = [0] * (len(p) - 1)
    rem = p[-1]
    for k in range(len(p) - 2, -1, -1):
        quo[k], r = divmod(rem, b)
        if r:
            return None
        rem = p[k] - a * quo[k]
    return None if rem else quo


def _poly_text(coeffs) -> str:
    if not coeffs or all(c == 0 for c in coeffs):
        return "0"
    pieces = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "s" if mag == 1 else f"{mag}*s"
        else:
            body = f"s^{k}" if mag == 1 else f"{mag}*s^{k}"
        pieces.append(("- " if c < 0 else "+ ") + body)
    head = pieces[0]
    head = "-" + head[2:] if head.startswith("- ") else head[2:]
    return " ".join([head] + pieces[1:])


@dataclass(frozen=True)
class Pole:
    location: Fraction
    order: int


class PoleTable:
    """Poles sorted by location descending, so the pole closest to the origin
    is entry 0.  Every location is a candidate -nu_i/N_i of the data."""

    def __init__(self, entries):
        entries = [Pole(Fraction(loc), int(order)) for loc, order in entries]
        entries.sort(key=lambda p: p.location, reverse=True)
        locs = [p.location for p in entries]
        if len(set(locs)) != len(locs):
            raise InvalidResolutionData("duplicate pole locations")
        if any(p.order < 1 for p in entries):
            raise InvalidResolutionData("pole orders must be positive")
        self.entries = tuple(entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, PoleTable) and self.entries == other.entries

    def __repr__(self):
        return f"PoleTable({[(str(p.location), p.order) for p in self.entries]})"

    def closest_to_origin(self):
        return self.entries[0] if self.entries else None

    def of_order(self, n: int):
        return [p for p in self.entries if p.order == n]


def _zeta(rd: ResolutionData, use_origin: bool) -> RationalFunction:
    """Sum chi(E_I) / prod_{i in I} (nu_i + N_i s) over the strata.

    The running sum is num / (scale * prod_f f^exps[f]) with integer
    coefficients num, a positive integer scale and f the primitive forms of
    the components.  A stratum raises each exponent to its own multiplicity of
    the form and scale to the lcm with its product of g_i, cross-multiplies the
    two numerators by the missing powers, then cancels: a form of the stratum
    is divided out of num while it divides exactly, and num and scale lose
    their joint content.  A form outside the stratum divides the new term
    but not the old numerator, so it cannot divide the sum.  The only
    irreducible factors of the denominator are the forms, so every partial
    sum is kept in lowest terms and in canonical form; its degree stays that
    of the reduced partial sum, whatever the order of the strata.
    """
    forms = {}
    for c in rd.components:
        g = _int_gcd(c.nu, c.N)
        forms[c.id] = (g, (c.nu // g, c.N // g))
    constant = rd.empty_chi_origin if use_origin else rd.empty_chi_total
    num = [constant] if constant else []
    scale, exps = 1, {}
    for st in rd.strata:
        chi = st.chi_origin if use_origin else st.chi_total
        if chi == 0:
            continue
        g_prod, mults = 1, {}
        for cid in st.ids:
            g, form = forms[cid]
            g_prod *= g
            mults[form] = mults.get(form, 0) + 1
        new_scale = _int_lcm(scale, g_prod)
        old = [c * (new_scale // scale) for c in num]
        term = [chi * (new_scale // g_prod)]
        for form, e in exps.items():
            m = mults.get(form, 0)
            if e > m:
                term = _times_form(term, form, e - m)
        for form, m in mults.items():
            e = exps.get(form, 0)
            if m > e:
                old = _times_form(old, form, m - e)
                exps[form] = m
        num = [x + y for x, y in zip_longest(old, term, fillvalue=0)]
        while num and num[-1] == 0:
            num.pop()
        scale = new_scale
        if not num:
            scale, exps = 1, {}
            continue
        for form in mults:
            while exps[form] and (quo := _divide_form(num, form)) is not None:
                num = quo
                exps[form] -= 1
            if not exps[form]:
                del exps[form]
        content = _int_gcd(scale, *num)
        if content > 1:
            num = [c // content for c in num]
            scale //= content
    if not num:
        return RationalFunction.zero()
    den = [scale]
    for form, e in exps.items():
        den = _times_form(den, form, e)
    return RationalFunction._from_canonical(tuple(num), tuple(den))


def zeta_local(rd: ResolutionData) -> RationalFunction:
    """Local topological zeta function of the germ the data resolves."""
    if rd.scope != "local":
        raise InvalidResolutionData("zeta_local needs data with scope 'local'")
    return _zeta(rd, use_origin=True)


def zeta_global(rd: ResolutionData) -> RationalFunction:
    """Global topological zeta function; needs data flagged as global with
    chi_total populated."""
    if rd.scope != "global":
        raise InvalidResolutionData("zeta_global needs data with scope 'global'")
    return _zeta(rd, use_origin=False)


def poles(z: RationalFunction, rd: ResolutionData) -> PoleTable:
    """Pole table of a zeta function computed from rd.

    Orders are root multiplicities in the canonical denominator, so candidates
    cancelled during reduction are not poles.  The unreduced denominator is a
    product of (nu_i + N_i s), hence every actual pole is a candidate; the
    final check only fires on values that cannot come from the defining sum.
    """
    entries = []
    total_order = 0
    for loc in rd.candidate_pole_locations():
        order = z.pole_order(loc)
        if order > 0:
            entries.append((loc, order))
            total_order += order
    if total_order != len(z.den) - 1:
        raise InvalidResolutionData(
            "denominator has a root outside the candidate set -nu_i/N_i"
        )
    return PoleTable(entries)


def _lct(rd: ResolutionData, only_origin: bool) -> Fraction:
    ratios = [
        Fraction(c.nu, c.N)
        for c in rd.components
        if (c.meets_origin_fiber or not only_origin)
    ]
    if not ratios:
        raise NoQualifyingComponent(
            "no component meets the origin fiber" if only_origin else "no components"
        )
    return min(ratios)


def lct_local(rd: ResolutionData) -> Fraction:
    """Log canonical threshold at the origin: min nu_i/N_i over components
    whose image contains the origin."""
    return _lct(rd, only_origin=True)


def lct_global(rd: ResolutionData) -> Fraction:
    """Global log canonical threshold: min nu_i/N_i over all components of the
    total transform of the zero locus."""
    return _lct(rd, only_origin=False)


def monomial_resolution_data(n: int, N: int) -> ResolutionData:
    """Identity-resolution data of the normal-crossings germ x_1^N ... x_n^N:
    n components (N, 1) whose full intersection is the origin."""
    if n < 1 or N < 1:
        raise ValueError("n and N must be positive")
    comps = tuple(Component(f"A{i + 1}", N, 1, True) for i in range(n))
    strata = (Stratum(frozenset(c.id for c in comps), 1, 1),)
    return ResolutionData(
        ambient_dim=n,
        components=comps,
        strata=strata,
        scope="local",
        branch_ids=tuple(c.id for c in comps),
    )
