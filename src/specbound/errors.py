"""Exception hierarchy shared across the package.

Everything derives from SpecboundError so callers (and the CLI) can map the
whole family to one exit code. Precondition failures carry enough context to
report the violated margin.
"""

from __future__ import annotations


class SpecboundError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(SpecboundError):
    """Operands have incompatible shapes or sizes."""


class SizeMismatch(DimensionMismatch):
    """Index sets that must have equal cardinality do not."""


class RankDeficient(SpecboundError):
    """Input columns do not span a space of the requested dimension."""


class FullSpace(SpecboundError):
    """Orthogonal complement requested for a frame that spans everything."""


class NotOrthonormal(SpecboundError):
    """Columns fail the orthonormality tolerance."""


class EmptySet(SpecboundError):
    """A point set that must be non-empty is empty."""


class ConditionViolated(SpecboundError):
    """The strict separation-preservation condition does not hold."""

    def __init__(self, message: str, margin: float | None = None):
        super().__init__(message)
        self.margin = margin


class NotSquare(SpecboundError):
    """Matrix input must be square."""


class NotNormal(SpecboundError):
    """Matrix fails the normality (commutator) tolerance."""

    def __init__(self, message: str, commutator_norm: float | None = None):
        super().__init__(message)
        self.commutator_norm = commutator_norm


class KappaOutOfRange(SpecboundError):
    """A kappa value lies outside its admissible interval."""


class GapConditionViolated(SpecboundError):
    """The perturbation is not smaller than half the spectral gap."""

    def __init__(self, message: str, margin: float | None = None):
        super().__init__(message)
        self.margin = margin


class SearchSpaceTooLarge(SpecboundError):
    """Exact enumeration would exceed the configured limit."""


class EmptyCluster(SpecboundError):
    """A cluster id refers to an empty or nonexistent cluster."""


class NotAnEdgeSuperset(SpecboundError):
    """The perturbed graph does not extend the base graph's intra-cluster edges."""


class ZeroGap(SpecboundError):
    """The relevant Laplacian eigenvalue gap vanishes."""


class MedConditionViolated(SpecboundError):
    """max MED is not below a quarter of the spectral gap."""

    def __init__(self, message: str, margin: float | None = None):
        super().__init__(message)
        self.margin = margin


class ZeroSeparation(SpecboundError):
    """Both eigenvalue-group separations vanish."""


class Unsatisfiable(SpecboundError):
    """Random generation could not satisfy constraints within the retry budget."""


class InvalidConfig(SpecboundError, ValueError):
    """An experiment parameter lies outside its valid range."""


class NotEnoughCrossPairs(SpecboundError):
    """Fewer cross-cluster vertex pairs exist than edges requested."""


class FormatError(SpecboundError):
    """A data file does not conform to its documented format."""
