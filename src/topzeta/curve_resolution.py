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
found exactly as root orbits of one-variable polynomials over Q.  Rational
points needing further blowups become new charts; conjugate orbits are kept
as counts and may only appear where the configuration is already normal
crossings, otherwise the resolution stops with ``IrrationalCenter``.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class BlowupState:
    charts: tuple               # (chart_id, LocalChart) pairs still pending
    pending_centers: tuple      # CenterOrbit entries, FIFO
    components: tuple           # ComponentRecord entries in creation order
    incidences: tuple           # (frozenset of two ids, orbit degree)
    history: tuple              # HistoryStep entries
    next_chart: int
    is_identity: bool = False

    def chart(self, chart_id: int) -> LocalChart:
        for cid, chart in self.charts:
            if cid == chart_id:
                return chart
        raise KeyError(chart_id)

    def component(self, comp_id: str) -> ComponentRecord:
        for c in self.components:
            if c.id == comp_id:
                return c
        raise KeyError(comp_id)

    def is_resolved(self) -> bool:
        return not self.pending_centers

    def numerical_history(self):
        """The (N, nu) sequence of created exceptional components."""
        return [(h.N, h.nu) for h in self.history]


# -- chart-level computations -------------------------------------------------


def _chart_a(poly: Poly, m: int) -> Poly:
    """Strict transform in chart (u, v) = (a, a*b): exponent remap
    (i, j) -> (i + j - m, j), dividing out a^m exactly."""
    terms = {(i + j - m, j): c for (i, j), c in poly.terms.items()}
    out = Poly(terms, 2)
    if out.min_exponent(0) != 0:
        raise AssertionError("inexact division by the exceptional coordinate")
    return out


def _chart_b(poly: Poly, m: int) -> Poly:
    """Strict transform in chart (u, v) = (a*b, b): (i, j) -> (i, i + j - m)."""
    terms = {(i, i + j - m): c for (i, j), c in poly.terms.items()}
    out = Poly(terms, 2)
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


class _Resolver:
    """Mutable companion of the immutable state; one blowup step at a time."""

    def __init__(self, state: BlowupState):
        self.charts = dict(state.charts)
        self.pending = list(state.pending_centers)
        self.components = list(state.components)
        self.incidences = list(state.incidences)
        self.history = list(state.history)
        self.next_chart = state.next_chart

    def freeze(self, is_identity: bool = False) -> BlowupState:
        live = {c.chart_id for c in self.pending}
        charts = tuple((cid, ch) for cid, ch in sorted(self.charts.items()) if cid in live)
        return BlowupState(
            charts=charts,
            pending_centers=tuple(self.pending),
            components=tuple(self.components),
            incidences=tuple(self.incidences),
            history=tuple(self.history),
            next_chart=self.next_chart,
            is_identity=is_identity,
        )

    def component(self, comp_id: str) -> ComponentRecord:
        for c in self.components:
            if c.id == comp_id:
                return c
        raise KeyError(comp_id)

    def new_exceptional(self, N, nu) -> str:
        eid = f"E{1 + sum(1 for c in self.components if c.kind == 'exceptional')}"
        self.components.append(ComponentRecord(eid, N, nu, "exceptional", 1))
        return eid

    def new_branch(self, N, degree) -> str:
        bid = f"B{1 + sum(1 for c in self.components if c.kind == 'branch')}"
        self.components.append(ComponentRecord(bid, N, 1, "branch", degree))
        return bid

    def add_chart(self, factors, axes, description) -> int:
        cid = self.next_chart
        self.next_chart += 1
        for axis, _ in axes:
            for cf in factors:
                assert cf.poly.min_exponent(axis) == 0
        self.charts[cid] = LocalChart(cid, tuple(factors), tuple(axes), description)
        return cid

    # -- one blowup --------------------------------------------------------

    def blow_up(self, center: CenterOrbit):
        if center not in self.pending:
            raise ValueError("center is not pending")
        if center.degree > 1:
            raise IrrationalCenter(
                f"center {center.description} is an orbit of degree {center.degree}; "
                "point blowups over Q cannot separate it (for non-degenerate germs "
                "use the toric pipeline)"
            )
        self.pending.remove(center)
        chart = self.charts[center.chart_id]
        axes = chart.axis_map()

        mults = [(cf, cf.poly.origin_multiplicity()) for cf in chart.factors]
        m_full = sum(cf.multiplicity * m for cf, m in mults)
        parents = sorted(axes.values())
        N_new = m_full + sum(self.component(p).N for p in parents)
        nu_new = 2 + sum(self.component(p).nu - 1 for p in parents)
        new_id = self.new_exceptional(N_new, nu_new)
        self.history.append(
            HistoryStep(
                index=len(self.history) + 1,
                component_id=new_id,
                N=N_new,
                nu=nu_new,
                center=center.description,
                parents=tuple(parents),
                multiplicity=m_full,
            )
        )

        # chart A: directions b finite; old axis 0 escapes to chart B
        strict_a = [
            ChartFactor(_chart_a(cf.poly, m), cf.multiplicity) for cf, m in mults
        ]
        old_axis1 = axes.get(1)
        self._scan_chart_a(strict_a, new_id, old_axis1)

        # chart B: only its origin (the direction u = 0) is new
        strict_b = [
            ChartFactor(_chart_b(cf.poly, m), cf.multiplicity) for cf, m in mults
        ]
        old_axis0 = axes.get(0)
        self._scan_chart_b(strict_b, new_id, old_axis0)

        del self.charts[center.chart_id]

    def _scan_chart_a(self, strict, new_id, old_axis1):
        rational = {}   # root t0 -> list of (factor index, multiplicity in G_k)
        orbits = {}     # monic irreducible coeff tuple -> list of (index, mult)
        for k, cf in enumerate(strict):
            g = cf.poly.restrict_to_zero(0)
            for fac, mult in unipoly.factor_rational(g):
                if unipoly.degree(fac) == 1:
                    root = -fac[0]
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

        for fac in sorted(orbits, key=lambda f: (unipoly.degree(f), f)):
            hits = orbits[fac]
            degree = unipoly.degree(fac)
            pending = len(hits) >= 2 or any(mult >= 2 for _, mult in hits)
            where = f"orbit of degree {degree} on {new_id}"
            if pending:
                self.pending.append(
                    CenterOrbit(
                        chart_id=-1,
                        degree=degree,
                        description=where,
                        defining=tuple(fac),
                    )
                )
            else:
                (k, _), = hits
                bid = self.new_branch(strict[k].multiplicity, degree)
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
            cid = self.add_chart(germs, axes, where)
            self.pending.append(CenterOrbit(cid, degree, where))
        else:
            # transverse smooth crossing of one branch with one divisor
            (cf, _), = mults
            ((_, divisor),) = axes
            bid = self.new_branch(cf.multiplicity, degree)
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
    pending = _is_pending(mults, 0)
    resolver = _Resolver(BlowupState((), (), (), (), (), next_chart=0))
    if pending:
        cid = resolver.add_chart(chart_factors, (), "origin")
        resolver.pending.append(CenterOrbit(cid, 1, "origin"))
        return resolver.freeze()
    # the germ is smooth: the identity map is already an embedded resolution,
    # with the single smooth branch carrying the origin
    assert len(mults) == 1 and mults[0][1] == 1
    resolver.new_branch(chart_factors[0].multiplicity, 1)
    return resolver.freeze(is_identity=True)


def blowup_step(state: BlowupState, center: CenterOrbit) -> BlowupState:
    """Blow up one pending center; returns the new state.  Raises
    IrrationalCenter on orbits of degree > 1."""
    resolver = _Resolver(state)
    resolver.blow_up(center)
    return resolver.freeze()


def resolve_curve_state(
    f: Poly, allow_nonreduced: bool = False, max_steps: int = 1000, parts=None
) -> BlowupState:
    """Run blowups until the total transform is a simple normal crossings
    divisor; returns the final state with history and incidence data.
    ``parts`` is passed on to :func:`initial_state`."""
    state = initial_state(f, allow_nonreduced, parts)
    steps = 0
    while state.pending_centers:
        if steps >= max_steps:
            raise TopZetaError(f"resolution did not finish within {max_steps} blowups")
        state = blowup_step(state, state.pending_centers[0])
        steps += 1
    return state


def euler_strata(state: BlowupState):
    """Stratum table of a finished resolution.

    Exceptional components are rational curves: chi = 2 minus the number of
    incidence points on them (orbits count with their degree).  Branch germs
    are disks attached at their incidence point, so their open stratum has
    chi 0 -- except for the identity resolution, where the single branch
    carries the origin itself.
    """
    if not state.is_resolved():
        raise UnresolvedState("resolution has pending centers")
    strata = []
    if state.is_identity:
        (branch,) = state.components
        return (Stratum(frozenset({branch.id}), 1, 1),)
    for comp in state.components:
        touching = sum(
            degree for ids, degree in state.incidences if comp.id in ids
        )
        if comp.kind == "exceptional":
            chi = 2 - touching
        else:
            chi = comp.orbit_degree - touching  # always 0: one attachment orbit
        strata.append(Stratum(frozenset({comp.id}), chi, chi if comp.kind == "exceptional" else 0))
    for ids, degree in state.incidences:
        strata.append(Stratum(frozenset(ids), degree, degree))
    strata.sort(key=lambda st: sorted(st.ids))
    return tuple(strata)


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
