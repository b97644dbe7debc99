"""Exception types shared across the toolkit.

Domain errors (bad geometry, bad parameters) derive from ValueError so
that callers can catch broadly; solver-state errors derive from
RuntimeError.
"""


class NonOrthonormalBasis(ValueError):
    """Frame columns fail the orthonormality tolerance."""


class IndexOutOfRange(ValueError):
    """Eigenvalue / branch index outside 1..n (or 1..m)."""


class BadParameters(ValueError):
    """Operator parameters violate their constraints (e.g. Pucci 0 < lam < Lam)."""


class OddDimension(ValueError):
    """An even ambient dimension 2n is required."""


class NegativeSource(ValueError):
    """A source density f(x) < 0 was encountered."""


class PhaseOutOfRange(ValueError):
    """Phase value outside (-n*pi/2, n*pi/2)."""


class DirectionalityViolation(ValueError):
    """Sampled check of g(p+q) >= g(p) failed on the declared cone."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class BadAlpha(ValueError):
    """Comparison-failure operator needs alpha > 1."""


class ReferenceJetNotInterior(ValueError):
    """Declared reference jet is not interior to the monotonicity cone."""


class NonRealRoots(ValueError):
    """Hyperbolicity violated: complex roots beyond tolerance."""

    def __init__(self, msg, matrix=None, residue=None):
        super().__init__(msg)
        self.matrix = matrix
        self.residue = residue


class DegenerateLeadingCoefficient(ValueError):
    """Recovered polynomial is not of the declared degree."""


class BracketingFailure(RuntimeError):
    """Boundary crossing not bracketed within the search radius."""


class BoundaryNode(ValueError):
    """Operation requires an interior grid node."""


class NotOnBoundary(ValueError):
    """Point does not satisfy |phi(x)| <= tol."""


class SingularGradient(ValueError):
    """Level-set gradient too small for a regular boundary point."""


class NotConverged(RuntimeError):
    """Fixed-point iteration hit max_iter above tolerance."""

    def __init__(self, msg, residuals=None):
        super().__init__(msg)
        self.residuals = residuals


class UnstableStep(RuntimeError):
    """Residual grew over too many consecutive steps."""


class EmptyFamily(ValueError):
    """Upper envelope of an empty family."""


class BoundaryViolation(ValueError):
    """Family member exceeds the boundary data."""


class HypothesisViolation(RuntimeError):
    """Experiment inputs fail their declared sub/super/approximator checks."""


class UnknownKey(KeyError):
    """Catalog or operator key not recognised."""

    def __str__(self):
        # KeyError's str() quotes its argument; the message is prose
        return str(self.args[0]) if self.args else ""


class ParseError(ValueError):
    """Malformed key, expression, or JSON payload."""
