"""Exact topological zeta functions of hypersurface singularities.

Parse a plane-curve germ, resolve it by blowups or torically, evaluate the
local zeta function exactly, and analyze its poles:

    >>> from topzeta import parse_poly, resolve_curve_germ, zeta_local
    >>> f = parse_poly("x^2 + y^3")
    >>> str(zeta_local(resolve_curve_germ(f)))
    '(4*s + 5) / (6*s^2 + 11*s + 5)'

Resolution data for germs in more variables enters through JSON documents
(see ``topzeta.formats``) or directly as ``ResolutionData``.
"""

from .analysis import (
    CyclotomicRF,
    EigenvalueSet,
    Prediction,
    acampo_zeta,
    candidate_bfunction_roots,
    check_conjecture2,
    check_conjecture3,
    check_conjecture4,
    max_order_pole_report,
    monodromy_eigenvalues_germ,
    predicted_bfunction_divisor,
)
from .curve_resolution import (
    BlowupState,
    CenterOrbit,
    NotReduced,
    blowup_step,
    euler_strata,
    initial_state,
    resolution_data,
    resolve_curve_germ,
    resolve_curve_state,
)
from .errors import (
    DegreeTooLarge,
    Degenerate,
    InvalidResolutionData,
    IrrationalCenter,
    NoQualifyingComponent,
    NonVanishingAtOrigin,
    ParseError,
    TheoremViolation,
    TopZetaError,
    UnknownVariable,
    UnresolvedState,
)
from .polynomial import (
    NewtonPolygon,
    Poly,
    is_nondegenerate_curve,
    newton_polygon_local,
    parse_poly,
)
from .toric_curve import Fan2D, dual_fan, toric_resolution_data, unimodular_subdivide
from .zeta_core import (
    Component,
    PoleTable,
    RationalFunction,
    ResolutionData,
    Stratum,
    lct_global,
    lct_local,
    monomial_resolution_data,
    poles,
    zeta_global,
    zeta_local,
)

__version__ = "0.1.0"
