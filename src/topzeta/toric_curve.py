"""Toric embedded resolution of non-degenerate plane-curve germs.

The dual fan of the Newton polygon lives in the closed positive quadrant:
its rays are (1,0), (0,1) and the primitive inner normals of the compact
segments, in angle order.  Refining the fan until all consecutive ray pairs
have determinant 1 gives a smooth toric surface resolving the germ; the ray
(a1, a2) carries the divisor with numerical data N = min over the support of
a.m and nu = a1 + a2.  Under Newton non-degeneracy the strict transform meets
the configuration transversally, one branch orbit per root orbit of each
segment's dehomogenized face polynomial, which makes the whole resolution a
finite exact computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import unipoly
from .curve_resolution import curve_strata
from .errors import Degenerate
from .polynomial import (
    Poly,
    NewtonPolygon,
    newton_polygon_local,
    segment_face_coeffs,
)
from .zeta_core import Component, ResolutionData


@dataclass(frozen=True)
class Ray:
    vector: tuple        # primitive, in the closed positive quadrant
    N: int               # min of vector . m over the support
    sigma: int           # vector[0] + vector[1]; the nu-value of the divisor
    original: bool       # ray of the unsubdivided dual fan


@dataclass(frozen=True)
class Fan2D:
    """Angle-ordered rays from (1,0) to (0,1) with their numerical data."""

    rays: tuple
    vertices: tuple      # polygon vertices, x-extreme first (for N evaluation)

    def determinants(self):
        out = []
        for r1, r2 in zip(self.rays, self.rays[1:]):
            (a1, a2), (b1, b2) = r1.vector, r2.vector
            out.append(a1 * b2 - a2 * b1)
        return out

    def is_unimodular(self) -> bool:
        return all(d == 1 for d in self.determinants())


def _value(vector, vertices) -> int:
    return min(vector[0] * vx + vector[1] * vy for vx, vy in vertices)


def dual_fan(np_f: NewtonPolygon) -> Fan2D:
    """Rays (1,0), (0,1) and the segment normals of the polygon, angle-ordered,
    each with N and sigma."""
    vectors = [(1, 0), (0, 1)] + [seg.normal for seg in np_f.segments]
    # all vectors distinct and primitive; sort by angle, exactly
    vectors.sort(key=lambda v: (2, 0) if v[0] == 0 else (1, Fraction(v[1], v[0])))
    rays = tuple(
        Ray(v, _value(v, np_f.vertices), v[0] + v[1], True) for v in vectors
    )
    return Fan2D(rays, np_f.vertices)


def _hirzebruch_jung(a, b):
    """Primitive vectors subdividing cone(a, b) minimally so that all
    consecutive determinants become 1, by continued-fraction insertion.

    Writing b = beta*a + d*e in a unimodular basis (a, e) with beta normalized
    into [1, d-1], the hull vector adjacent to a is c = a + e; iterating from c
    strictly decreases the determinant.
    """
    out = []
    while True:
        d = a[0] * b[1] - a[1] * b[0]
        assert d >= 1
        if d == 1:
            return out
        e = _solve_unimodular(a)
        beta = b[0] * e[1] - b[1] * e[0]
        k = beta // d
        e = (e[0] + k * a[0], e[1] + k * a[1])
        beta -= k * d
        assert 1 <= beta < d
        c = (a[0] + e[0], a[1] + e[1])
        assert a[0] * c[1] - a[1] * c[0] == 1
        assert c[0] * b[1] - c[1] * b[0] == d - beta
        assert c[0] >= 0 and c[1] >= 0
        out.append(c)
        a = c


def _xgcd(a, b):
    prev_x, x = 1, 0
    prev_y, y = 0, 1
    while b:
        q, r = divmod(a, b)
        x, prev_x = prev_x - q * x, x
        y, prev_y = prev_y - q * y, y
        a, b = b, r
    return a, prev_x, prev_y


def _solve_unimodular(a):
    """Some integer vector e with det(a, e) = a0*e1 - a1*e0 = 1."""
    g, x, y = _xgcd(a[0], a[1])
    assert g == 1
    # a0*x + a1*y = 1  ->  e = (-y, x)
    return (-y, x)


def unimodular_subdivide(fan: Fan2D) -> Fan2D:
    """Insert rays until every consecutive pair spans a unimodular cone.

    N is linear on each cone of the original fan (the minimum is attained at
    the cone's dual polygon vertex), which the insertion asserts.
    """
    originals = [r for r in fan.rays if r.original]
    # cone k of the original fan is dual to polygon vertex (#vertices - 1 - k)
    new_rays = []
    for k, (r1, r2) in enumerate(zip(originals, originals[1:])):
        new_rays.append(r1)
        dual_vertex = fan.vertices[len(fan.vertices) - 1 - k]
        for vec in _hirzebruch_jung(r1.vector, r2.vector):
            N = _value(vec, fan.vertices)
            assert N == vec[0] * dual_vertex[0] + vec[1] * dual_vertex[1], (
                "N must be linear inside one cone of the dual fan"
            )
            new_rays.append(Ray(vec, N, vec[0] + vec[1], False))
    new_rays.append(originals[-1])
    out = Fan2D(tuple(new_rays), fan.vertices)
    assert out.is_unimodular()
    return out


def toric_resolution_data(f: Poly) -> ResolutionData:
    """Resolution data of a non-degenerate germ from the subdivided dual fan.

    Interior rays carry exceptional curves over the origin; the axis rays
    (1,0) and (0,1) enter only when x resp. y divides f.  Branch orbits attach
    to the normal ray of their segment face, one per irreducible factor of the
    dehomogenized face polynomial.  That polynomial g has g(0) != 0, so a
    factor of multiplicity > 1 is a repeated non-zero root: the germ is
    degenerate and ``Degenerate`` is raised.
    """
    np_f = newton_polygon_local(f)
    faces = [
        (seg, unipoly.factor_rational(segment_face_coeffs(f, seg)))
        for seg in np_f.segments
    ]
    if any(mult > 1 for _, factors in faces for _, mult in factors):
        raise Degenerate(
            "germ is degenerate with respect to its Newton polygon; "
            "the blowup pipeline may still apply"
        )
    fan = unimodular_subdivide(dual_fan(np_f))

    components = []
    exceptional_ids = []
    branches = []     # (id, orbit degree)
    incidences = []   # (frozenset of ids, orbit degree)
    ray_comp = {}     # ray vector -> component id
    for ray in fan.rays:
        if ray.N == 0:
            continue  # coordinate axis not dividing f: not in the total transform
        if ray.vector[0] >= 1 and ray.vector[1] >= 1:
            cid = f"E{len(exceptional_ids) + 1}"
            exceptional_ids.append(cid)
        else:
            cid = "Ax" if ray.vector == (1, 0) else "Ay"
            branches.append((cid, 1))
        ray_comp[ray.vector] = cid
        components.append(Component(cid, ray.N, ray.sigma, True))

    # incidences between consecutive rays that both carry components
    for r1, r2 in zip(fan.rays, fan.rays[1:]):
        c1, c2 = ray_comp.get(r1.vector), ray_comp.get(r2.vector)
        if c1 is not None and c2 is not None:
            incidences.append((frozenset({c1, c2}), 1))

    # branch orbits from the segment faces
    n_branch = 0
    for seg, factors in faces:
        host = ray_comp[seg.normal]
        for factor, mult in factors:
            degree = unipoly.degree(factor)
            n_branch += 1
            bid = f"B{n_branch}"
            branches.append((bid, degree))
            components.append(Component(bid, mult, 1, True))
            incidences.append((frozenset({host, bid}), degree))

    return ResolutionData(
        ambient_dim=2,
        components=tuple(components),
        strata=curve_strata(exceptional_ids, branches, incidences),
        scope="local",
        branch_ids=tuple(bid for bid, _ in branches),
    )
