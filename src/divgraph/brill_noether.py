"""Brill-Noether numerics and the bounded existence search.

Everything here is exact integer or rational arithmetic: the Brill-Noether
number rho, the factorial-product bound on the refinement index k needed
for a divisor of degree d and rank >= r to exist, the older bound it
improves on, and the search that walks refinements G^(0), G^(1), ... up to
the bound looking for a witness divisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod
from typing import Optional, Union

from .divisors import Divisor, enumerate_classes, rank_at_least, reduce, vertex_divisor
from .errors import (
    InvalidInputError,
    NegativeRhoError,
    NonIntegralBoundError,
    PreconditionViolatedError,
    check_int,
)
from .graphs import Multigraph, genus, refine


# Returned by :func:`bn_bound` when g - d + r < 0: Riemann-Roch already
# forces rank >= d - g >= r on the unrefined graph, so k = 0 suffices and
# the factorial formula does not apply.
RR_SHORTCUT = "rr-shortcut"

Bound = Union[int, str]


def rho(g: int, d: int, r: int) -> int:
    """Brill-Noether number (r+1)(d-r) - g*r of non-negative integers."""
    for name, value in (("g", g), ("d", d), ("r", r)):
        check_int(value, name, 0)
    return (r + 1) * (d - r) - g * r


def bn_bound(g: int, d: int, r: int) -> Bound:
    """Strict upper bound on the refinement index k needed for a degree-d
    rank->=r divisor to exist on G^(k), for any genus-g graph.

    Returns g! * prod_{i=0..r} i! / (g-d+r+i)! as an exact integer.  The
    value is the intersection number of the Brill-Noether locus with rho
    theta-divisor translates, hence a positive integer whenever rho >= 0
    and g - d + r >= 0; a failed integrality check raises rather than
    rounding.  When g - d + r < 0 the formula is undefined and refinement
    is unnecessary, so :data:`RR_SHORTCUT` is returned.  Raises
    :class:`NegativeRhoError` when rho < 0.

    With c = g - d + r, each (c + i)! / i! is the product of i + j over
    j = 1..c, so the bound is g! over the product of i + j for
    0 <= i <= r and 1 <= j <= c.  rho >= 0 is the same as c(r + 1) <= g,
    so that product has at most g factors, and one factorial suffices.
    """
    p = rho(g, d, r)
    if p < 0:
        raise NegativeRhoError(f"rho({g},{d},{r}) = {p} < 0")
    c = g - d + r
    if c < 0:
        return RR_SHORTCUT
    denominator = prod(i + j for i in range(r + 1) for j in range(1, c + 1))
    value, remainder = divmod(factorial(g), denominator)
    if remainder:
        raise NonIntegralBoundError(
            f"bound for (g,d,r)=({g},{d},{r}) evaluated to a non-integer"
        )
    return value


def check_legacy_args(n: int, m: int, d: int, r: int) -> None:
    """Raise :class:`InvalidInputError` unless n >= 1, m >= 0, d >= 1 and
    r >= 0, where :func:`legacy_bound` is defined."""
    if n < 1 or m < 0 or d < 1 or r < 0:
        raise InvalidInputError("need n >= 1, m >= 0, d >= 1, r >= 0")


def _legacy_exponent(n: int, m: int, d: int, r: int) -> int:
    """e = m + n^r * d, the exponent of :func:`legacy_bound`."""
    check_legacy_args(n, m, d, r)
    return m + n**r * d


def legacy_bound(n: int, m: int, d: int, r: int) -> int:
    """The earlier combinatorial bound (m + n^r * d)! * d^(m + n^r * d) for
    a graph with n vertices and m edges."""
    e = _legacy_exponent(n, m, d, r)
    return factorial(e) * d**e


def legacy_bound_min_digits(n: int, m: int, d: int, r: int) -> int:
    """A lower bound on the number of decimal digits of
    :func:`legacy_bound`, from bit lengths alone: no factorial is taken.

    With e the exponent, log2(e! d^e) is at least L, the sum of
    floor(log2 i) over i = 1..e plus e * floor(log2 d).  Each i of bit
    length j adds j - 1: with B the bit length of e, the 2^(j-1) integers
    of each length j < B add (B - 3) * 2^(B - 1) + 2 in all, and the
    e - 2^(B-1) + 1 of length B add B - 1 each.  A number N >= 2^L has at
    least floor(L * log10 2) + 1 digits, and log10 2 > 30102 / 100000.
    """
    e = _legacy_exponent(n, m, d, r)
    top = e.bit_length()
    low = 1 << (top - 1)
    bits = (top - 3) * low + 2 + (top - 1) * (e - low + 1) + e * (d.bit_length() - 1)
    return bits * 30102 // 100000 + 1


def bound_chain_check(g: int, d: int, r: int, *, legacy: Optional[int] = None) -> bool:
    """Exact-arithmetic verification that the factorial bound beats the
    legacy bound through the chain

        bn_bound <= g!(r!)^r < g!(d!)^r < g!d^(dr) < legacy_bound(2, g+1, d, r).

    The first comparison admits equality (it is tight at g - d + r = 0 with
    r = 1); the rest are strict.  Requires rho >= 0, g - d + r >= 0, r >= 1
    and d > r.  A caller that already holds legacy_bound(2, g+1, d, r)
    passes it as ``legacy``: it is a factorial of g + 1 + 2^r d and takes
    seconds to compute from r near 14 on.
    """
    if rho(g, d, r) < 0 or g - d + r < 0 or r < 1 or d <= r:
        raise PreconditionViolatedError(
            f"(g,d,r)=({g},{d},{r}) violates rho>=0, g-d+r>=0, r>=1, d>r"
        )
    bound = bn_bound(g, d, r)
    assert isinstance(bound, int)
    fg = factorial(g)
    t1 = fg * factorial(r) ** r
    t2 = fg * factorial(d) ** r
    t3 = fg * d ** (d * r)
    if legacy is None:
        legacy = legacy_bound(2, g + 1, d, r)
    return bound <= t1 < t2 < t3 < legacy


@dataclass(frozen=True)
class BoundReport:
    """The exact numerology for one (g, d, r) instance."""

    rho: int
    theorem_bound: Bound
    k_range: tuple[int, int]


def bound_report(g: int, d: int, r: int) -> BoundReport:
    """rho, the factorial bound and the searched k interval [0, bound - 1],
    which is [0, 0] under :data:`RR_SHORTCUT`."""
    bound = bn_bound(g, d, r)
    return BoundReport(
        rho=rho(g, d, r),
        theorem_bound=bound,
        k_range=(0, 0 if bound == RR_SHORTCUT else bound - 1),
    )


@dataclass(frozen=True)
class SearchLimits:
    """Resource caps for :func:`find_gdr`.  ``max_k`` overrides the bound's
    k range; ``max_classes`` caps the total number of divisor classes
    tested.  Each is None or a non-negative integer; anything else raises
    :class:`InvalidInputError`."""

    max_k: Optional[int] = None
    max_classes: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_k", "max_classes"):
            value = getattr(self, name)
            if value is not None:
                check_int(value, name, 0)


@dataclass(frozen=True)
class SearchResult:
    found: bool
    k: Optional[int]
    witness: Optional[Divisor]
    classes_examined: int
    exhausted: bool
    limit_hit: Optional[str] = None


def _search_one_level(
    graph: Multigraph, d: int, r: int, budget: Optional[int]
) -> tuple[Optional[Divisor], int, bool]:
    """Scan the degree-d classes of one refinement level for a rank->=r
    witness.  Returns (witness or None, classes examined, budget hit).

    Every class of the level counts as examined, in the order of
    :func:`enumerate_classes`, up to the witness or the budget.  The scan
    walks with the threshold r, which yields each class it keeps at its
    position among all the classes.  It keeps only the classes with
    D(q) >= r that the anchor screen does not reject.  Every class it
    leaves out has rank below r, the verdict :func:`rank_at_least` would
    return: a class with D(q) < r is q-reduced, so D - r*(q) is q-reduced
    too and negative at q, hence not effective.  The budget is the walk's
    limit, so no count runs past it.  Only the classes the walk yields are
    built into a divisor and rank-checked.
    """
    for examined, coeffs in enumerate_classes(graph, graph.vertices[0], d, r, budget):
        if coeffs is None:
            break
        divisor = Divisor(graph, coeffs)
        if rank_at_least(graph, divisor, r):
            return divisor, examined + 1, False
    # the walk ends one past the budget if a class lies beyond it
    if budget is not None and examined > budget:
        return None, budget, True
    return None, examined, False


def find_gdr(
    graph: Multigraph, d: int, r: int, limits: Optional[SearchLimits] = None
) -> SearchResult:
    """Search refinements G^(0), G^(1), ... for a divisor of degree d and
    rank at least r.

    The k range defaults to [0, bn_bound - 1]; each level is searched
    completely (lowest k wins, then enumeration order) with no monotonicity
    assumption between levels.  When d - g >= r, Riemann-Roch makes every
    degree-d divisor work, so the search returns immediately at k = 0 with
    the class of d*(v0), validated like any other witness.  Resource limits
    produce a truncated result (found=False, exhausted=False), never an
    exception.
    """
    limits = limits or SearchLimits()
    g = genus(graph)
    # before either branch, so bad arguments and rho < 0 raise first
    k_hi = bound_report(g, d, r).k_range[1]
    if d - g >= r:
        q = graph.vertices[0]
        witness = reduce(graph, vertex_divisor(graph, q, d), q).divisor
        if not rank_at_least(graph, witness, r):
            raise AssertionError(
                "Riemann-Roch shortcut produced an invalid witness; this is a bug"
            )
        return SearchResult(
            found=True, k=0, witness=witness, classes_examined=1, exhausted=True
        )

    limit_hit = None
    if limits.max_k is not None and limits.max_k < k_hi:
        k_hi = limits.max_k
        limit_hit = "max-k"

    examined = 0
    for k in range(k_hi + 1):
        level_graph, _ = refine(graph, k)
        budget = None if limits.max_classes is None else limits.max_classes - examined
        witness, used, truncated = _search_one_level(level_graph, d, r, budget)
        examined += used
        if witness is not None:
            return SearchResult(
                found=True,
                k=k,
                witness=witness,
                classes_examined=examined,
                exhausted=False,
            )
        if truncated:
            limit_hit = "max-classes"
            break
    return SearchResult(
        found=False,
        k=None,
        witness=None,
        classes_examined=examined,
        exhausted=limit_hit is None,
        limit_hit=limit_hit,
    )


@dataclass(frozen=True)
class GonalityResult:
    found: bool
    d: Optional[int]
    witness: Optional[Divisor]
    classes_examined: int


def gonality_search(graph: Multigraph, r: int, d_max: int) -> GonalityResult:
    """Smallest degree d <= d_max carrying a rank-r divisor on the graph
    itself (no refinement), with a witness.  Starts at d = r since the rank
    never exceeds the degree.  Each degree is one level scan of
    :func:`find_gdr` on the graph itself."""
    check_int(r, "r", 1)
    check_int(d_max, "d_max", 0)
    examined = 0
    for d in range(r, d_max + 1):
        witness, used, _ = _search_one_level(graph, d, r, None)
        examined += used
        if witness is not None:
            return GonalityResult(True, d, witness, examined)
    return GonalityResult(False, None, None, examined)
