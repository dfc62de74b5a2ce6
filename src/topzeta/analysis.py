"""Pole analysis: maximal-order poles, predicted b-function divisors,
monodromy eigenvalues and conjecture checkers.

A pole of maximal order n of the local zeta function is severely constrained:
it must sit at -1/N for an integer N >= 1 and coincide with minus the log
canonical threshold.  When that happens, the eigenvalue chain
exp(2*pi*i*(-j/N)), j = 1..N, is forced on the weight-graded Milnor-fibre
cohomology, and for isolated singularities the product of (s + j/N)^n divides
the local b-function.  This module turns those statements into checked
prediction records, plus exact checkers for the conjectural statements that
relate poles to b-function roots and monodromy eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import TheoremViolation
from .zeta_core import PoleTable, RationalFunction, ResolutionData, lct_global, lct_local


@dataclass(frozen=True)
class Prediction:
    """Findings at a (possible) maximal-order pole.

    ``s0`` is the order-n pole when one exists, always of the form -1/N and
    equal to -lct; ``divisor_roots`` is the predicted divisor of the local
    b-function (only under a proven or asserted isolated singularity) and
    ``grw_eigenvalues`` records the forced eigenvalue chain as fractions j/N
    encoding exp(2*pi*i*(-j/N)).
    """

    n: int
    lct: Fraction
    isolated: str                       # "yes" | "no" | "unknown"
    s0: Fraction | None = None
    N: int | None = None
    divisor_roots: tuple = ()           # ((root, multiplicity), ...) sorted desc
    grw_eigenvalues: tuple = ()
    notes: tuple = ()

    def __post_init__(self):
        if self.isolated not in ("yes", "no", "unknown"):
            raise ValueError("isolated must be yes/no/unknown")
        if self.s0 is not None:
            if self.N is None or self.s0 != Fraction(-1, self.N):
                raise TheoremViolation(f"s0={self.s0} is not of the form -1/N")
            if self.s0 != -self.lct:
                raise TheoremViolation(f"s0={self.s0} differs from -lct={-self.lct}")
        if self.divisor_roots and self.isolated != "yes":
            raise ValueError("divisor prediction requires the isolated hypothesis")

    def has_max_order_pole(self) -> bool:
        return self.s0 is not None


def predicted_bfunction_divisor(n: int, N: int):
    """Roots (with multiplicity) of the divisor (s+1/N)^n ... (s+1)^n that the
    maximal-order-pole theorem forces into the b-function."""
    if n < 1 or N < 1:
        raise ValueError("n and N must be positive")
    return tuple((Fraction(-j, N), n) for j in range(1, N + 1))


def max_order_pole_report(
    pt: PoleTable, rd: ResolutionData, isolated: str = "unknown"
) -> Prediction:
    """Inspect a pole table for an order-n pole and emit the forced predictions.

    The threshold is that of ``rd``'s scope: ``lct_global`` for global data,
    ``lct_local`` otherwise.  An order-n pole that is not of the form -1/N, or
    not the closest candidate -lct, contradicts facts that hold for every
    actual zeta function; that is surfaced loudly as TheoremViolation rather
    than patched over.
    """
    n = rd.ambient_dim
    lct = lct_global(rd) if rd.scope == "global" else lct_local(rd)
    notes = []
    max_poles = pt.of_order(n)
    if not max_poles:
        return Prediction(n=n, lct=lct, isolated=isolated, notes=("no order-n pole",))
    if len(max_poles) > 1:
        raise TheoremViolation(
            f"{len(max_poles)} poles of maximal order {n}: "
            f"{[str(p.location) for p in max_poles]}"
        )
    (pole,) = max_poles
    s0 = pole.location
    if s0.numerator != -1:
        raise TheoremViolation(f"order-{n} pole at {s0} is not of the form -1/N")
    if s0 != -lct:
        raise TheoremViolation(
            f"order-{n} pole at {s0} is not minus the log canonical threshold {lct}"
        )
    N = s0.denominator
    grw = tuple(Fraction(j, N) for j in range(1, N + 1))
    divisor = ()
    if isolated == "yes":
        divisor = predicted_bfunction_divisor(n, N)
        notes.append(f"divisor of total degree {n * N} forced into the b-function")
    else:
        notes.append("isolated hypothesis not established: divisor withheld")
    if rd.scope == "global":
        notes.append(
            "global data: the divisor claim is for the b-function of the "
            "polynomial, the lcm of the local b-functions"
        )
    return Prediction(
        n=n,
        lct=lct,
        isolated=isolated,
        s0=s0,
        N=N,
        divisor_roots=divisor,
        grw_eigenvalues=grw,
        notes=tuple(notes),
    )


def candidate_bfunction_roots(rd: ResolutionData, window=None) -> list[Fraction]:
    """All candidates -(nu_i + k)/N_i inside the open window, sorted with the
    value closest to the origin first.  Every b-function root has this shape."""
    if window is None:
        window = (Fraction(-rd.ambient_dim), Fraction(0))
    lo, hi = Fraction(window[0]), Fraction(window[1])
    if not lo < hi <= 0:
        raise ValueError("window must satisfy lo < hi <= 0")
    out = set()
    for c in rd.components:
        k = 0
        while True:
            candidate = Fraction(-(c.nu + k), c.N)
            if candidate <= lo:
                break
            if candidate < hi:
                out.add(candidate)
            k += 1
    return sorted(out, reverse=True)


@dataclass(frozen=True)
class CyclotomicRF:
    """Product of factors (1 - t^m)^e with distinct m and non-zero e."""

    factors: tuple   # ((m, e), ...) sorted by m

    def __post_init__(self):
        ms = [m for m, _ in self.factors]
        if len(set(ms)) != len(ms):
            raise ValueError("duplicate factor orders")
        if any(e == 0 for _, e in self.factors):
            raise ValueError("zero exponents must be dropped")

    @classmethod
    def from_exponents(cls, exponents: dict) -> "CyclotomicRF":
        return cls(tuple(sorted((m, e) for m, e in exponents.items() if e != 0)))

    def degree_sum(self) -> int:
        """sum of m*e over the factors; the Euler characteristic of the fibre
        the product encodes."""
        return sum(m * e for m, e in self.factors)

    def __str__(self):
        if not self.factors:
            return "1"
        return " * ".join(f"(1 - t^{m})^{e}" for m, e in self.factors)


def acampo_zeta(rd: ResolutionData) -> CyclotomicRF:
    """Monodromy zeta function of the germ from the resolution data:
    product over components of (1 - t^{N_i}) to the power -chi(E_i° over 0)."""
    exponents = {}
    chi_by_comp = {}
    for st in rd.strata:
        if len(st.ids) == 1:
            (cid,) = st.ids
            chi_by_comp[cid] = st.chi_origin
    for c in rd.components:
        chi = chi_by_comp.get(c.id, 0)
        if chi:
            exponents[c.N] = exponents.get(c.N, 0) - chi
    return CyclotomicRF.from_exponents(exponents)


def _divisors(m: int) -> list[int]:
    small = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
    return small + [m // d for d in small if d * d != m]


@dataclass(frozen=True)
class EigenvalueSet:
    """Certified monodromy eigenvalues exp(2*pi*i*q), kept as the cyclotomic
    orders they come from: q in [0,1) is in the set exactly when its reduced
    denominator divides one of ``orders``."""

    orders: frozenset
    provenance: tuple    # ((m, reason), ...) one line per order, first reason

    def __contains__(self, q) -> bool:
        d = Fraction(q).denominator
        return any(m % d == 0 for m in self.orders)

    def pairs(self) -> list[tuple[int, int]]:
        """The exponents q = k/d as (k, d) in lowest terms, sorted by value.

        With D the divisors of the orders and L = lcm(D), k/d < k'/d' iff
        k*(L/d) < k'*(L/d'), so the sort runs on integers alone."""
        dens = {d for m in self.orders for d in _divisors(m)}
        L = lcm(*dens)
        keyed = sorted(
            (k * (L // d), k, d) for d in dens for k in range(d) if gcd(k, d) == 1
        )
        return [(k, d) for _, k, d in keyed]

    def sorted(self) -> list[Fraction]:
        return [Fraction(k, d) for k, d in self.pairs()]


def monodromy_eigenvalues_germ(rd: ResolutionData) -> EigenvalueSet:
    """Certified subset of eigenvalues of the local monodromy at points of the
    germ: roots of unity seen by the zeros and poles of the monodromy zeta
    function, the eigenvalues at nearby smooth points of each branch, and the
    trivial eigenvalue from H^0."""
    reasons = {}
    for m, _ in acampo_zeta(rd).factors:
        reasons.setdefault(m, f"order-{m} factor of the monodromy zeta function")
    for m in rd.branch_multiplicities():
        reasons.setdefault(m, f"nearby points of a multiplicity-{m} branch")
    reasons.setdefault(1, "H^0 of nearby smooth points")
    return EigenvalueSet(frozenset(reasons), tuple(reasons.items()))


@dataclass(frozen=True)
class Conjecture3Report:
    results: tuple   # ((pole location, "certified" | "inconclusive"), ...)

    def all_certified(self) -> bool:
        return all(status == "certified" for _, status in self.results)


def check_conjecture3(pt: PoleTable, ev: EigenvalueSet) -> Conjecture3Report:
    """Certify each pole s0 whose exp(2*pi*i*s0) lies in the computed
    eigenvalue set.  Absence is reported as inconclusive, never as violated:
    the computed set is a certified subset and cancellation can hide
    eigenvalues."""
    results = []
    for p in pt:
        status = "certified" if p.location in ev else "inconclusive"
        results.append((p.location, status))
    return Conjecture3Report(tuple(results))


@dataclass(frozen=True)
class Conjecture4Report:
    order_n_locations: tuple
    at_most_one: bool
    closest_when_present: bool
    equals_minus_lct: bool | None   # None when vacuous

    def passed(self) -> bool:
        return self.at_most_one and self.closest_when_present


def check_conjecture4(pt: PoleTable, n: int, lct: Fraction) -> Conjecture4Report:
    """Part (1): at most one pole of order n.  Part (2): an order-n pole is the
    pole closest to the origin; the report also records the observed
    strengthening s0 = -lct."""
    max_poles = pt.of_order(n)
    at_most_one = len(max_poles) <= 1
    if not max_poles:
        return Conjecture4Report((), at_most_one, True, None)
    closest = pt.closest_to_origin()
    closest_ok = all(p.location == closest.location for p in max_poles)
    equals = all(p.location == -lct for p in max_poles)
    return Conjecture4Report(
        tuple(p.location for p in max_poles), at_most_one, closest_ok, equals
    )


def check_conjecture2(z: RationalFunction, b_roots) -> bool:
    """True iff b(s) * z(s) is a polynomial, i.e. every pole order of z is at
    most the multiplicity of the pole location as a root of the supplied
    b-function."""
    mults = {}
    for root, mult in b_roots:
        mults[Fraction(root)] = mults.get(Fraction(root), 0) + int(mult)
    # the distinct roots' linear factors are coprime, so b cancels
    # min(order, multiplicity) of each; z has no pole outside b's roots and
    # orders within multiplicity iff that uses up the whole denominator
    covered = sum(
        min(z.pole_order(root), mult) for root, mult in mults.items() if mult > 0
    )
    return covered == len(z.den) - 1
