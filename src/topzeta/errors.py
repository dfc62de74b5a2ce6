"""Exception hierarchy shared by all topzeta modules."""


class TopZetaError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TopZetaError):
    """Malformed polynomial text.  Carries the 0-based offset of the offending token."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(ParseError):
    """A name in the input is not among the declared variables."""


class NonVanishingAtOrigin(TopZetaError):
    """The germ does not vanish at the origin, so local constructions are undefined."""


class Degenerate(TopZetaError):
    """The germ is degenerate with respect to its Newton polygon."""


class DegreeTooLarge(TopZetaError):
    """The germ's degree is beyond what a dense row of its squarefree
    decomposition can hold."""


class IrrationalCenter(TopZetaError):
    """A blowup center is a Galois orbit of degree > 1; point blowups over Q cannot
    continue.  For non-degenerate germs the toric pipeline is the usual way out."""


class UnresolvedState(TopZetaError):
    """An operation requiring a finished resolution was called on a state with
    pending centers."""


class InvalidResolutionData(TopZetaError):
    """Resolution data violates one of its invariants; the message names it."""


class NoQualifyingComponent(TopZetaError):
    """No component qualifies for the requested threshold (empty minimum)."""


class TheoremViolation(TopZetaError):
    """An order-n pole failed a property every actual zeta function must satisfy.
    Signals corrupt input data or a genuine counterexample; never swallowed."""
