"""Exception hierarchy.

Every error carries a stable ``slug`` used by the CLI for machine-readable
reason fields.  :func:`check_int` and :func:`check_type` are the one
integer check and the one JSON-type check for values read from input files
and configs.
"""

from __future__ import annotations

from typing import Optional


class DivGraphError(Exception):
    """Base class for all validation and precondition failures."""

    slug = "error"


class InvalidInputError(DivGraphError, ValueError):
    """Also a :class:`ValueError`, so callers that catch one keep working."""

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


class IntegerTooLargeError(DivGraphError):
    """An integer in a report, or an integer literal in JSON input, exceeds
    the interpreter's int-to-str digit limit (``sys.get_int_max_str_digits``)."""

    slug = "integer-too-large"


def check_int(value, what: str, minimum: Optional[int] = None) -> int:
    """Return ``value`` if it is an integer, and at least ``minimum`` when
    one is given; otherwise raise :class:`InvalidInputError` naming
    ``what``.  Only an exact ``int`` is an integer here: a bool is not, so
    JSON ``true`` is not 1, and neither is any other subclass of int."""
    if type(value) is not int or (minimum is not None and value < minimum):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise InvalidInputError(f"{what} must be an integer{at_least}, got {value!r}")
    return value


_JSON_TYPES = {"object": dict, "array": (list, tuple), "string": str}


def check_type(value, kind: str, what: str):
    """Return ``value`` if it has the JSON type ``kind`` (``"object"``,
    ``"array"`` or ``"string"``); otherwise raise
    :class:`InvalidInputError` naming ``what``."""
    if not isinstance(value, _JSON_TYPES[kind]):
        raise InvalidInputError(f"{what} must be a JSON {kind}, got {value!r:.80}")
    return value
