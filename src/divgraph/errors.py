"""Exception hierarchy.

Every error carries a stable ``slug`` used by the CLI for machine-readable
reason fields.
"""

from __future__ import annotations


class DivGraphError(Exception):
    """Base class for all validation and precondition failures."""

    slug = "error"


class InvalidInputError(DivGraphError):
    slug = "invalid-input"


class EmptyVertexSetError(DivGraphError):
    slug = "empty-vertex-set"


class UnknownVertexError(DivGraphError):
    slug = "unknown-vertex"


class LoopEdgeError(DivGraphError):
    slug = "loop-edge"


class DisconnectedError(DivGraphError):
    slug = "disconnected"


class IndexMismatchError(DivGraphError):
    slug = "index-mismatch"


class EmptyOrFullSetError(DivGraphError):
    slug = "empty-or-full-set"


class NegativeRhoError(DivGraphError):
    slug = "negative-rho"


class NonIntegralBoundError(DivGraphError):
    slug = "non-integral-bound"


class PreconditionViolatedError(DivGraphError):
    slug = "precondition-violated"


class EndpointMismatchError(DivGraphError):
    slug = "endpoint-mismatch"


class NotHarmonicError(DivGraphError):
    slug = "not-harmonic"


class ClassMismatchError(DivGraphError):
    slug = "class-mismatch"


class IntegerTooLargeError(DivGraphError):
    """A report integer exceeds the interpreter's int-to-str digit limit."""

    slug = "integer-too-large"
