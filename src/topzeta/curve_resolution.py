"""Embedded resolution of plane-curve germs by iterated point blowups.

The state of a resolution is a worklist of local charts, one per point that
still violates normal crossings.  A chart is a germ at the origin of local
coordinates (u, v): the strict transforms of the input's squarefree parts
together with the exceptional divisors passing through the point, each of
which is one of the two coordinate axes.  A squarefree part may hold several
branches and a unit cofactor h with h(0) != 0: origin multiplicities add, the
unit restricts to the constant h(0) on every exceptional curve, and tangent
branches of one part show up as a repeated root on the new exceptional curve,
so the point stays pending.

Blowing up the origin of a chart produces the two standard charts

    A: (u, v) = (a, a*b)      exceptional {a = 0}, directions b = v/u finite
    B: (u, v) = (a*b, b)      exceptional {b = 0}, the direction u = 0

and the numerical data of the new exceptional component follows the
recursions  N = m + sum N_i  and  nu = 2 + sum (nu_i - 1)  over the divisors
through the center, where m is the multiplicity of the (non-reduced) strict
transform there.

Intersection points of strict transforms with the new exceptional curve are
found exactly as the irreducible factors over Q of one-variable integer
polynomials: a linear factor is a rational point, a factor of degree d an
orbit of d conjugate points.  Rational points needing further blowups become
new charts; conjugate orbits are kept as counts and may only appear where the
configuration is already normal crossings, otherwise the resolution stops
with ``IrrationalCenter``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import unipoly
from .errors import (
    IrrationalCenter,
    NonVanishingAtOrigin,
    TopZetaError,
    UnresolvedState,
)
from .polynomial import Poly, germ_factors
from .zeta_core import Component, ResolutionData, Stratum


class NotReduced(TopZetaError):
    """Input germ has a repeated factor through the origin and the caller did
    not opt in to non-reduced handling."""


@dataclass(frozen=True)
class ChartFactor:
    poly: Poly          # strict transform of a squarefree part, vanishing at the chart origin
    multiplicity: int   # exponent of this squarefree part in the input


@dataclass(frozen=True)
class LocalChart:
    id: int
    factors: tuple      # ChartFactor entries
    axes: tuple         # (axis index, exceptional component id) pairs, len <= 2
    description: str

    def axis_map(self):
        return dict(self.axes)


@dataclass(frozen=True)
class CenterOrbit:
    """A point (or Galois orbit of points) scheduled for blowup.

    Rational centers (degree 1) reference a chart whose origin is the center.
    Orbits of degree > 1 keep their irreducible defining polynomial instead;
    they cannot be blown up over Q.
    """

    chart_id: int
    degree: int
    description: str
    defining: tuple = ()   # coefficients of the defining polynomial, orbits only


@dataclass(frozen=True)
class ComponentRecord:
    id: str
    N: int
    nu: int
    kind: str           # "exceptional" | "branch"
    orbit_degree: int   # branches: number of conjugate points; exceptional: 1


@dataclass(frozen=True)
class HistoryStep:
    index: int
    component_id: str
    N: int
    nu: int
    center: str
    parents: tuple      # exceptional component ids through the center
    multiplicity: int   # multiplicity of the strict transform at the center


# -- chart-level computations -------------------------------------------------


def _chart_a(poly: Poly, m: int) -> Poly:
    """Strict transform in chart (u, v) = (a, a*b): exponent remap
    (i, j) -> (i + j - m, j), dividing out a^m exactly."""
    terms = {(i + j - m, j): c for (i, j), c in poly.terms.items()}
    out = Poly._from_canonical(terms, 2)
    if out.min_exponent(0) != 0:
        raise AssertionError("inexact division by the exceptional coordinate")
    return out


def _chart_b(poly: Poly, m: int) -> Poly:
    """Strict transform in chart (u, v) = (a*b, b): (i, j) -> (i, i + j - m)."""
    terms = {(i, i + j - m): c for (i, j), c in poly.terms.items()}
    out = Poly._from_canonical(terms, 2)
    if out.min_exponent(1) != 0:
        raise AssertionError("inexact division by the exceptional coordinate")
    return out


def _is_pending(factors, n_axes: int) -> bool:
    """Normal-crossings test for a germ with the given incident exceptional
    axes.  factors: list of (ChartFactor, local multiplicity >= 1)."""
    m_red = sum(mult for _, mult in factors)
    if m_red == 0:
        return False
    if m_red >= 2:
        return True
    if n_axes == 2:
        return True
    if n_axes == 0:
        return False
    return None  # smooth, one axis: caller must decide by tangency


def _axis_contact_order(germ: Poly, axis: int) -> int:
    """Intersection multiplicity at the origin of the germ with {x_axis = 0}."""
    restricted = germ.restrict_to_zero(axis)
    assert restricted, "germ contains the exceptional axis"
    for k, c in enumerate(restricted):
        if c != 0:
            return k
    raise AssertionError("unreachable")


@dataclass(eq=False)
class BlowupState:
    """A resolution in progress; :func:`blowup_step` advances it in place."""

    charts: dict = field(default_factory=dict)           # chart id -> LocalChart of a pending center
    pending_centers: list = field(default_factory=list)  # CenterOrbit entries, FIFO
    components: list = field(default_factory=list)       # ComponentRecord entries in creation order
    by_id: dict = field(default_factory=dict)            # component id -> ComponentRecord
    incidences: list = field(default_factory=list)       # (frozenset of two ids, orbit degree)
    history: list = field(default_factory=list)          # HistoryStep entries
    is_identity: bool = False
    created: dict = field(default_factory=lambda: {"E": 0, "B": 0, "chart": 0})

    def is_resolved(self) -> bool:
        return not self.pending_centers

    def numerical_history(self):
        """The (N, nu) sequence of created exceptional components."""
        return [(h.N, h.nu) for h in self.history]

    def _count(self, kind: str) -> int:
        self.created[kind] += 1
        return self.created[kind]

    def _new_component(self, prefix, N, nu, kind, degree) -> str:
        cid = f"{prefix}{self._count(prefix)}"
        record = ComponentRecord(cid, N, nu, kind, degree)
        self.components.append(record)
        self.by_id[cid] = record
        return cid

    def _new_branch(self, N, degree) -> str:
        return self._new_component("B", N, 1, "branch", degree)

    def _add_chart(self, factors, axes, description) -> int:
        cid = self._count("chart")
        for axis, _ in axes:
            for cf in factors:
                assert cf.poly.min_exponent(axis) == 0
        self.charts[cid] = LocalChart(cid, tuple(factors), tuple(axes), description)
        return cid

    def _scan_chart_a(self, strict, new_id, old_axis1):
        rational = {}   # root t0 -> list of (factor index, multiplicity in G_k)
        orbits = {}     # irreducible primitive integer tuple -> list of (index, mult)
        for k, cf in enumerate(strict):
            g = cf.poly.restrict_to_zero(0)
            for fac, mult in unipoly.factor_rational(g):
                if unipoly.degree(fac) == 1:
                    root = Fraction(-fac[0], fac[1])
                    rational.setdefault(root, []).append((k, mult))
                else:
                    orbits.setdefault(fac, []).append((k, mult))
        if old_axis1 is not None:
            rational.setdefault(Fraction(0), [])

        for t0 in sorted(rational):
            hits = rational[t0]
            corner = old_axis1 if t0 == 0 and old_axis1 is not None else None
            axes = [(0, new_id)] + ([(1, corner)] if corner else [])
            if not hits:
                # bare corner of two exceptional curves: already normal crossings
                self.incidences.append((frozenset({new_id, corner}), 1))
                continue
            germs = [
                ChartFactor(strict[k].poly.substitute_shift(1, t0), strict[k].multiplicity)
                for k, _ in hits
            ]
            where = f"t={t0} on {new_id}" + (f", corner with {corner}" if corner else "")
            self._dispatch_point(germs, axes, where, degree=1)

        for fac in sorted(orbits, key=unipoly.monic_key):
            hits = orbits[fac]
            degree = unipoly.degree(fac)
            pending = len(hits) >= 2 or any(mult >= 2 for _, mult in hits)
            where = f"orbit of degree {degree} on {new_id}"
            if pending:
                self.pending_centers.append(
                    CenterOrbit(
                        chart_id=-1,
                        degree=degree,
                        description=where,
                        defining=tuple(fac),
                    )
                )
            else:
                (k, _), = hits
                bid = self._new_branch(strict[k].multiplicity, degree)
                self.incidences.append((frozenset({new_id, bid}), degree))

    def _scan_chart_b(self, strict, new_id, old_axis0):
        vanishing = [
            (k, cf) for k, cf in enumerate(strict) if cf.poly.constant_term() == 0
        ]
        if old_axis0 is None and not vanishing:
            return
        axes = [(1, new_id)] + ([(0, old_axis0)] if old_axis0 is not None else [])
        if not vanishing:
            self.incidences.append((frozenset({new_id, old_axis0}), 1))
            return
        germs = [ChartFactor(cf.poly, cf.multiplicity) for _, cf in vanishing]
        where = f"t=infinity on {new_id}" + (
            f", corner with {old_axis0}" if old_axis0 is not None else ""
        )
        self._dispatch_point(germs, axes, where, degree=1)

    def _dispatch_point(self, germs, axes, where, degree):
        """Classify a rational point: record a transverse branch crossing or
        queue another blowup."""
        mults = [(cf, cf.poly.origin_multiplicity()) for cf in germs]
        assert all(m >= 1 for _, m in mults)
        verdict = _is_pending(mults, len(axes))
        if verdict is None:
            (axis, _), = axes
            verdict = _axis_contact_order(germs[0].poly, axis) >= 2
        if verdict:
            cid = self._add_chart(germs, axes, where)
            self.pending_centers.append(CenterOrbit(cid, degree, where))
        else:
            # transverse smooth crossing of one branch with one divisor
            (cf, _), = mults
            ((_, divisor),) = axes
            bid = self._new_branch(cf.multiplicity, degree)
            self.incidences.append((frozenset({divisor, bid}), degree))


# -- public surface -------------------------------------------------------------


def initial_state(f: Poly, allow_nonreduced: bool = False, parts=None) -> BlowupState:
    """Set up the origin chart for a two-variable germ and decide whether any
    blowup is needed at all.  ``parts`` is ``germ_factors(f)`` when the caller
    has already computed it."""
    if f.num_vars != 2:
        raise ValueError("resolution needs a 2-variable polynomial")
    if f.is_zero():
        raise NonVanishingAtOrigin("the zero polynomial is not a germ")
    if f.constant_term() != 0:
        raise NonVanishingAtOrigin("germ does not vanish at the origin")
    if parts is None:
        parts = germ_factors(f)
    if not allow_nonreduced and any(m > 1 for _, m in parts):
        raise NotReduced(
            "germ has a repeated factor through the origin; "
            "pass allow_nonreduced to accept it"
        )
    chart_factors = tuple(ChartFactor(p, m) for p, m in parts)
    mults = [(cf, cf.poly.origin_multiplicity()) for cf in chart_factors]
    state = BlowupState()
    if _is_pending(mults, 0):
        cid = state._add_chart(chart_factors, (), "origin")
        state.pending_centers.append(CenterOrbit(cid, 1, "origin"))
        return state
    # the germ is smooth: the identity map is already an embedded resolution,
    # with the single smooth branch carrying the origin
    assert len(mults) == 1 and mults[0][1] == 1
    state._new_branch(chart_factors[0].multiplicity, 1)
    state.is_identity = True
    return state


def blowup_step(state: BlowupState, center: CenterOrbit) -> BlowupState:
    """Blow up one pending center of ``state`` in place and return ``state``.
    Raises IrrationalCenter on orbits of degree > 1, leaving ``state`` as it
    was."""
    if center not in state.pending_centers:
        raise ValueError("center is not pending")
    if center.degree > 1:
        raise IrrationalCenter(
            f"center {center.description} is an orbit of degree {center.degree}; "
            "point blowups over Q cannot separate it (for non-degenerate germs "
            "use the toric pipeline)"
        )
    state.pending_centers.remove(center)
    chart = state.charts.pop(center.chart_id)
    axes = chart.axis_map()

    mults = [(cf, cf.poly.origin_multiplicity()) for cf in chart.factors]
    m_full = sum(cf.multiplicity * m for cf, m in mults)
    parents = sorted(axes.values())
    N_new = m_full + sum(state.by_id[p].N for p in parents)
    nu_new = 2 + sum(state.by_id[p].nu - 1 for p in parents)
    new_id = state._new_component("E", N_new, nu_new, "exceptional", 1)
    state.history.append(
        HistoryStep(
            index=len(state.history) + 1,
            component_id=new_id,
            N=N_new,
            nu=nu_new,
            center=center.description,
            parents=tuple(parents),
            multiplicity=m_full,
        )
    )

    # chart A: directions b finite; old axis 0 escapes to chart B
    strict_a = [ChartFactor(_chart_a(cf.poly, m), cf.multiplicity) for cf, m in mults]
    state._scan_chart_a(strict_a, new_id, axes.get(1))
    # chart B: only its origin (the direction u = 0) is new
    strict_b = [ChartFactor(_chart_b(cf.poly, m), cf.multiplicity) for cf, m in mults]
    state._scan_chart_b(strict_b, new_id, axes.get(0))
    return state


def resolve_curve_state(f: Poly, allow_nonreduced: bool = False, parts=None) -> BlowupState:
    """Run blowups until the total transform is a simple normal crossings
    divisor; returns the final state with history and incidence data.
    ``parts`` is passed on to :func:`initial_state`.

    There is no step limit: finitely many point blowups resolve every
    plane-curve germ (Casas-Alvero, Singularities of Plane Curves, LMS Lecture
    Note Series 276, 2000), and the loop ends or stops with
    ``IrrationalCenter``.
    """
    state = initial_state(f, allow_nonreduced, parts)
    while state.pending_centers:
        blowup_step(state, state.pending_centers[0])
    return state


def curve_strata(exceptional_ids, branches, incidences):
    """Stratum table of a plane-curve resolution from its incidence graph.

    ``branches`` holds (id, orbit degree) pairs and ``incidences`` holds
    (frozenset of two ids, orbit degree) pairs.  Exceptional components are
    rational curves: chi = 2 minus the number of incidence points on them
    (orbits count with their degree).  A branch orbit of degree d is d disks,
    so its open stratum has chi = d minus its points, and it lies over the
    origin only when it meets nothing: then the resolution is the identity
    and the branch carries the origin itself.
    """
    points = {}
    for ids, degree in incidences:
        for cid in ids:
            points[cid] = points.get(cid, 0) + degree
    strata = []
    for cid in exceptional_ids:
        chi = 2 - points.get(cid, 0)
        strata.append(Stratum(frozenset({cid}), chi, chi))
    for cid, orbit in branches:
        touching = points.get(cid, 0)
        strata.append(Stratum(frozenset({cid}), orbit - touching, 0 if touching else orbit))
    for ids, degree in incidences:
        strata.append(Stratum(frozenset(ids), degree, degree))
    strata.sort(key=lambda st: sorted(st.ids))
    return tuple(strata)


def euler_strata(state: BlowupState):
    """Stratum table of a finished resolution, by :func:`curve_strata`."""
    if not state.is_resolved():
        raise UnresolvedState("resolution has pending centers")
    return curve_strata(
        [c.id for c in state.components if c.kind == "exceptional"],
        [(c.id, c.orbit_degree) for c in state.components if c.kind == "branch"],
        state.incidences,
    )


def resolution_data(state: BlowupState) -> ResolutionData:
    """Package a finished state as resolution data for the zeta formula."""
    comps = tuple(
        Component(c.id, c.N, c.nu, True) for c in state.components
    )
    return ResolutionData(
        ambient_dim=2,
        components=comps,
        strata=euler_strata(state),
        scope="local",
        branch_ids=tuple(c.id for c in state.components if c.kind == "branch"),
    )


def resolve_curve_germ(f: Poly, allow_nonreduced: bool = False) -> ResolutionData:
    """Embedded resolution of (f^{-1}{0}, 0) with exact numerical data."""
    return resolution_data(resolve_curve_state(f, allow_nonreduced))
