"""Embedded resolution of plane-curve germs by iterated point blowups.

The state of a resolution is a worklist of pending centers, one per point
that still violates normal crossings, and each center carries its own chart:
a germ at the origin of local coordinates (u, v) made of the strict
transforms of the input's squarefree parts, as (Poly, multiplicity) pairs,
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
new pending centers; conjugate orbits are kept as counts and may only appear
where the configuration is already normal crossings, otherwise the resolution
stops with ``IrrationalCenter``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import unipoly
from .errors import IrrationalCenter, TopZetaError, UnresolvedState
from .polynomial import Poly, germ_factors
from .zeta_core import Component, ResolutionData, Stratum


class NotReduced(TopZetaError):
    """Input germ has a repeated factor through the origin and the caller did
    not opt in to non-reduced handling."""


@dataclass(frozen=True)
class CenterOrbit:
    """A point (or Galois orbit of points) scheduled for blowup.

    A rational center (degree 1) carries its chart, centred at the point:
    ``factors`` holds (strict transform, multiplicity in the input) pairs
    vanishing there, and ``axes`` the (axis index, exceptional Component)
    pairs of the divisors through it.  An orbit of degree > 1 keeps only its
    irreducible ``defining`` polynomial; it cannot be blown up over Q.
    """

    degree: int
    description: str
    factors: tuple = ()
    axes: tuple = ()
    defining: tuple = ()   # coefficients of the defining polynomial, orbits only


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
    out = Poly._from_canonical(terms)
    if out.min_exponent(0) != 0:
        raise AssertionError("inexact division by the exceptional coordinate")
    return out


def _chart_b(poly: Poly, m: int) -> Poly:
    """Strict transform in chart (u, v) = (a*b, b): (i, j) -> (i, i + j - m)."""
    terms = {(i, i + j - m): c for (i, j), c in poly.terms.items()}
    out = Poly._from_canonical(terms)
    if out.min_exponent(1) != 0:
        raise AssertionError("inexact division by the exceptional coordinate")
    return out


def _is_pending(mults, n_axes: int) -> bool:
    """Normal-crossings test for a germ with the given incident exceptional
    axes.  mults: the local multiplicities of its factors."""
    m_red = sum(mults)
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

    pending_centers: list = field(default_factory=list)  # CenterOrbit entries, FIFO
    components: list = field(default_factory=list)       # zeta_core.Component, creation order
    branches: list = field(default_factory=list)         # (branch id, orbit degree)
    incidences: list = field(default_factory=list)       # (frozenset of two ids, orbit degree)
    history: list = field(default_factory=list)          # HistoryStep entries

    def is_resolved(self) -> bool:
        return not self.pending_centers

    def numerical_history(self):
        """The (N, nu) sequence of created exceptional components."""
        return [(h.N, h.nu) for h in self.history]

    def _new_branch(self, N, degree) -> str:
        bid = f"B{len(self.branches) + 1}"
        self.components.append(Component(bid, N, 1, True))
        self.branches.append((bid, degree))
        return bid

    def _scan_chart_a(self, strict, new, old_axis1):
        rational = {}   # root t0 -> list of (factor index, multiplicity in G_k)
        orbits = {}     # irreducible primitive integer tuple -> list of (index, mult)
        for k, (poly, _) in enumerate(strict):
            for fac, mult in unipoly.factor_rational(poly.restrict_to_zero(0)):
                if unipoly.degree(fac) == 1:
                    root = Fraction(-fac[0], fac[1])
                    rational.setdefault(root, []).append((k, mult))
                else:
                    orbits.setdefault(fac, []).append((k, mult))
        if old_axis1 is not None:
            rational.setdefault(Fraction(0), [])

        for t0 in sorted(rational):
            hits = rational[t0]
            corner = old_axis1 if t0 == 0 else None
            axes = [(0, new)] + ([(1, corner)] if corner else [])
            if not hits:
                # bare corner of two exceptional curves: already normal crossings
                self.incidences.append((frozenset({new.id, corner.id}), 1))
                continue
            germs = [
                (strict[k][0].substitute_shift(1, t0), strict[k][1]) for k, _ in hits
            ]
            where = f"t={t0} on {new.id}" + (f", corner with {corner.id}" if corner else "")
            self._dispatch_point(germs, axes, where)

        for fac in sorted(orbits, key=unipoly.monic_key):
            hits = orbits[fac]
            degree = unipoly.degree(fac)
            if len(hits) >= 2 or any(mult >= 2 for _, mult in hits):
                where = f"orbit of degree {degree} on {new.id}"
                self.pending_centers.append(CenterOrbit(degree, where, defining=tuple(fac)))
            else:
                (k, _), = hits
                bid = self._new_branch(strict[k][1], degree)
                self.incidences.append((frozenset({new.id, bid}), degree))

    def _scan_chart_b(self, strict, new, old_axis0):
        vanishing = [(poly, mult) for poly, mult in strict if poly.constant_term() == 0]
        if old_axis0 is None and not vanishing:
            return
        if not vanishing:
            self.incidences.append((frozenset({new.id, old_axis0.id}), 1))
            return
        axes = [(1, new)] + ([(0, old_axis0)] if old_axis0 is not None else [])
        where = f"t=infinity on {new.id}" + (
            f", corner with {old_axis0.id}" if old_axis0 is not None else ""
        )
        self._dispatch_point(vanishing, axes, where)

    def _dispatch_point(self, germs, axes, where):
        """Classify a rational point: record a transverse branch crossing or
        queue another blowup."""
        mults = [poly.origin_multiplicity() for poly, _ in germs]
        assert all(m >= 1 for m in mults)
        verdict = _is_pending(mults, len(axes))
        if verdict is None:
            (axis, _), = axes
            verdict = _axis_contact_order(germs[0][0], axis) >= 2
        if verdict:
            for axis, _ in axes:
                for poly, _ in germs:
                    assert poly.min_exponent(axis) == 0
            self.pending_centers.append(CenterOrbit(1, where, tuple(germs), tuple(axes)))
        else:
            # transverse smooth crossing of one branch with one divisor
            (_, multiplicity), = germs
            ((_, divisor),) = axes
            bid = self._new_branch(multiplicity, 1)
            self.incidences.append((frozenset({divisor.id, bid}), 1))


# -- public surface -------------------------------------------------------------


def initial_state(f: Poly, allow_nonreduced: bool = False, parts=None) -> BlowupState:
    """Set up the origin chart for a germ and decide whether any blowup is
    needed at all.  ``parts`` is ``germ_factors(f)`` when the caller has
    already computed it, and so checked that f is a germ."""
    if parts is None:
        parts = germ_factors(f)
    if not allow_nonreduced and any(m > 1 for _, m in parts):
        raise NotReduced(
            "germ has a repeated factor through the origin; "
            "pass allow_nonreduced to accept it"
        )
    mults = [poly.origin_multiplicity() for poly, _ in parts]
    state = BlowupState()
    if _is_pending(mults, 0):
        state.pending_centers.append(CenterOrbit(1, "origin", tuple(parts)))
        return state
    # the germ is smooth: the identity map is already an embedded resolution,
    # with the single smooth branch carrying the origin
    assert mults == [1]
    state._new_branch(parts[0][1], 1)
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

    local = [(poly, mult, poly.origin_multiplicity()) for poly, mult in center.factors]
    m_full = sum(mult * m for _, mult, m in local)
    parents = sorted((c for _, c in center.axes), key=lambda c: c.id)
    new = Component(
        f"E{len(state.history) + 1}",
        m_full + sum(c.N for c in parents),
        2 + sum(c.nu - 1 for c in parents),
        True,
    )
    state.components.append(new)
    state.history.append(
        HistoryStep(
            index=len(state.history) + 1,
            component_id=new.id,
            N=new.N,
            nu=new.nu,
            center=center.description,
            parents=tuple(c.id for c in parents),
            multiplicity=m_full,
        )
    )

    axes = dict(center.axes)
    # chart A: directions b finite; old axis 0 escapes to chart B
    state._scan_chart_a([(_chart_a(p, m), mult) for p, mult, m in local], new, axes.get(1))
    # chart B: only its origin (the direction u = 0) is new
    state._scan_chart_b([(_chart_b(p, m), mult) for p, mult, m in local], new, axes.get(0))
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
        [h.component_id for h in state.history], state.branches, state.incidences
    )


def resolution_data(state: BlowupState) -> ResolutionData:
    """Package a finished state as resolution data for the zeta formula."""
    return ResolutionData(
        ambient_dim=2,
        components=tuple(state.components),
        strata=euler_strata(state),
        scope="local",
        branch_ids=tuple(bid for bid, _ in state.branches),
    )


def resolve_curve_germ(f: Poly, allow_nonreduced: bool = False) -> ResolutionData:
    """Embedded resolution of (f^{-1}{0}, 0) with exact numerical data."""
    return resolution_data(resolve_curve_state(f, allow_nonreduced))
