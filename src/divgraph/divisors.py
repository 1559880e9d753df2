"""Divisor arithmetic and the Baker-Norine calculus on multigraphs.

A divisor is an integer chip count per vertex.  Linear equivalence is
generated by set-firings (equivalently, by integer combinations of
Laplacian rows).  Every equivalence class contains a unique q-reduced
representative: non-negative away from q and superstable, meaning Dhar's
burning process started at q consumes the whole graph.  Reduction gives
effectivity tests, equivalence tests, the Baker-Norine rank and a
duplicate-free enumeration of divisor classes.

All operations are pure functions over immutable inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import EmptyOrFullSetError, IndexMismatchError, InvalidInputError, check_int
from .graphs import Multigraph, RefinementMap, genus


@dataclass(frozen=True)
class Divisor:
    """An element of Div(G): one integer coefficient per vertex, aligned
    with the graph's canonical vertex order.  A coefficient that is not an
    ``int`` (a float, or a bool) raises :class:`InvalidInputError`."""

    graph: Multigraph
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != len(self.graph.vertices):
            raise IndexMismatchError(
                f"divisor has {len(self.coeffs)} coefficients for "
                f"{len(self.graph.vertices)} vertices"
            )
        if {*map(type, self.coeffs)} != {int}:
            for v, c in zip(self.graph.vertices, self.coeffs):
                check_int(c, f"divisor coefficient for {v!r}")

    @classmethod
    def from_map(cls, graph: Multigraph, values: Mapping[str, int]) -> "Divisor":
        """Build from a vertex-name map; omitted vertices get 0.  A value
        goes through :func:`check_int`, then its name through
        :meth:`Multigraph.vertex_index`."""
        coeffs = [0] * len(graph.vertices)
        for v, c in values.items():
            # the message is built only for a value that fails the check
            if type(c) is not int:
                check_int(c, f"divisor coefficient for {v!r}")
            coeffs[graph.vertex_index(v, "divisor vertex")] = c
        return cls(graph, tuple(coeffs))

    @classmethod
    def zero(cls, graph: Multigraph) -> "Divisor":
        return cls(graph, (0,) * len(graph.vertices))

    def to_map(self) -> dict[str, int]:
        """The non-zero coefficients by vertex name."""
        return {v: c for v, c in zip(self.graph.vertices, self.coeffs) if c != 0}

    @cached_property
    def degree(self) -> int:
        return sum(self.coeffs)

    def at(self, v: str) -> int:
        return self.coeffs[self.graph.vertex_index(v)]

    # an operand that is not a Divisor, or a factor that is not an int,
    # gets NotImplemented, so Python raises its TypeError: coefficients
    # stay exact integers

    def __add__(self, other: "Divisor") -> "Divisor":
        if not isinstance(other, Divisor):
            return NotImplemented
        _require_graph(self.graph, other)
        return Divisor(self.graph, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Divisor") -> "Divisor":
        if not isinstance(other, Divisor):
            return NotImplemented
        _require_graph(self.graph, other)
        return Divisor(self.graph, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Divisor":
        return Divisor(self.graph, tuple(-a for a in self.coeffs))

    def __mul__(self, n: int) -> "Divisor":
        if not isinstance(n, int) or isinstance(n, bool):
            return NotImplemented
        return Divisor(self.graph, tuple(n * a for a in self.coeffs))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Divisor({self.to_map()}, deg={self.degree})"


@dataclass(frozen=True)
class ReducedDivisor:
    """A q-reduced divisor together with its base vertex.

    Invariant: non-negative at every vertex other than ``base``, and Dhar's
    burning process from ``base`` burns the whole graph.  Produced by
    :func:`reduce`; each linear-equivalence class has exactly one such
    representative.  Pass its ``divisor`` where a divisor is needed.
    """

    divisor: Divisor
    base: str


def vertex_divisor(graph: Multigraph, v: str, mult: int = 1) -> Divisor:
    """The divisor mult*(v)."""
    coeffs = [0] * len(graph.vertices)
    coeffs[graph.vertex_index(v)] = mult
    return Divisor(graph, tuple(coeffs))


def canonical(graph: Multigraph) -> Divisor:
    """The canonical divisor K with K(v) = degree(v) - 2; deg K = 2g - 2."""
    return Divisor(graph, tuple(d - 2 for d in graph.degrees))


def fire_set(graph: Multigraph, divisor: Divisor, subset: Iterable[str]) -> Divisor:
    """Fire every vertex of ``subset`` once.

    Each member loses one chip per edge leaving the set, each outside
    vertex gains one per edge into the set: the result is ``divisor``
    minus the :func:`principal_divisor` of the indicator function of the
    set, so it is linearly equivalent and of the same degree.
    """
    _require_graph(graph, divisor)
    indicator = {}
    for v in subset:
        graph.vertex_index(v, "firing-set vertex")
        indicator[v] = 1
    if not 0 < len(indicator) < len(graph.vertices):
        raise EmptyOrFullSetError("firing set must be a nonempty proper vertex subset")
    return -principal_divisor(graph, indicator) + divisor


def principal_divisor(graph: Multigraph, potential: Mapping[str, int]) -> Divisor:
    """The divisor of an integer function f: coefficient at v is the sum of
    f(v) - f(w) over edges vw.  Always degree 0."""
    f = [0] * len(graph.vertices)
    for v, value in potential.items():
        f[graph.vertex_index(v, "potential vertex")] = check_int(value, f"potential at {v!r}")
    coeffs = [0] * len(graph.vertices)
    for i in range(len(graph.vertices)):
        coeffs[i] = sum(m * (f[i] - f[j]) for j, m in graph.adjacency[i])
    return Divisor(graph, tuple(coeffs))


def _dhar_burnt(
    graph: Multigraph, coeffs: Sequence[int], q: int
) -> tuple[list[bool], list[int]]:
    """Dhar's burning process started at q: per vertex index, whether it
    burns, and its heat.

    A vertex burns once its heat, its count of edges to burnt vertices,
    exceeds its coefficient.  The configuration is superstable iff every
    vertex burns.  The heat of an unburnt vertex ends as its edge count
    into the burnt set, the chips it loses when the unburnt set fires.
    """
    n = len(graph.vertices)
    burnt = [False] * n
    burnt[q] = True
    heat = [0] * n
    _burn_on(graph.adjacency, coeffs, burnt, heat, [q])
    return burnt, heat


def _burn_on(
    adjacency: Sequence[Sequence[tuple[int, int]]],
    cap: Sequence[int] | Mapping[int, int],
    burnt: list[bool],
    heat: list[int],
    queue: list[int],
) -> None:
    """Go on with a Dhar burn from the burnt vertices in ``queue``, whose
    fire has not spread yet: a vertex burns once its heat exceeds its
    ``cap``.  ``burnt`` and ``heat`` are updated in place.

    With ``cap[v] = coeffs[v] // k``, for a multiplicity k >= 1, a vertex
    burns once k times its heat exceeds its coefficient.  The unburnt set
    can then fire k times without a vertex going negative, and every set
    avoiding the burnt ones that can fire k times stays unburnt.  A burn
    at a larger k burns a superset, so it may resume from the state of a
    burn at a smaller one.
    """
    while queue:
        v = queue.pop()
        for w, m in adjacency[v]:
            if not burnt[w]:
                heat[w] += m
                if heat[w] > cap[w]:
                    burnt[w] = True
                    queue.append(w)


def _reduce_coeffs(
    graph: Multigraph, coeffs: list[int], q: int, until_effective: bool = False
) -> list[int]:
    """Core q-reduction on a raw coefficient list (mutated and returned).

    Phase 1 clears negative values away from q by firing distance sublevel
    sets, outermost layer first: firing {v : dist(v) < i} moves chips only
    along the edges between layers i - 1 and i (in BFS order every edge
    leaving the set joins those two layers), so it raises every distance-i
    vertex by its edge count into layer i - 1 and leaves vertices farther
    than i untouched.  Phase 2 superstabilizes with Dhar's algorithm until
    everything burns: each round burns from q and fires a set left
    unburnt, each member losing its heat per firing.

    Firing the maximal unburnt set as often as its members allow moves a
    large pile slowly when a member with few chips caps the count.  So
    each round fires the set of :func:`_fire_often`: it doubles the
    multiplicity of a threshold burn while the burn still leaves a set
    unburnt, and fires the last such set as often as its members allow.
    The rounds then grow with the bit length of the coefficients, not with
    their size.  A chip that slides along a long chain of degree-2
    vertices still takes one round per step.  Every firing is legal and q
    never fires, so the result is the same unique q-reduced divisor.

    Phase 2 never fires q and keeps every other vertex non-negative, so
    ``coeffs[q]`` only grows there.  With ``until_effective`` the loop stops
    as soon as ``coeffs[q] >= 0``: the state is then effective, which is all
    an effectivity test needs, but it need not be q-reduced.
    """
    n = len(graph.vertices)
    adjacency = graph.adjacency
    dist = graph.bfs_distances(q)

    if any(coeffs[v] < 0 for v in range(n) if v != q):
        layers: list[list[int]] = [[] for _ in range(max(dist) + 1)]
        for v in range(n):
            layers[dist[v]].append(v)
        for layer in range(len(layers) - 1, 0, -1):
            members = layers[layer]
            rounds = 0
            for v in members:
                if coeffs[v] < 0:
                    gain = sum(m for w, m in adjacency[v] if dist[w] < layer)
                    rounds = max(rounds, -(coeffs[v] // gain))
            if rounds:
                for v in members:
                    for w, m in adjacency[v]:
                        if dist[w] < layer:
                            coeffs[v] += rounds * m
                            coeffs[w] -= rounds * m

    while True:
        if until_effective and coeffs[q] >= 0:
            return coeffs
        burnt, heat = _dhar_burnt(graph, coeffs, q)
        fire = [v for v in range(n) if not burnt[v]]
        if not fire:
            return coeffs
        fire, rounds = _fire_often(adjacency, coeffs, burnt, heat, fire)
        for v in fire:
            coeffs[v] -= rounds * heat[v]
            for w, m in adjacency[v]:
                if burnt[w]:
                    coeffs[w] += rounds * m


def _fire_often(
    adjacency: Sequence[Sequence[tuple[int, int]]],
    coeffs: Sequence[int],
    burnt: list[bool],
    heat: list[int],
    fire: list[int],
) -> tuple[list[int], int]:
    """A set that fires often, and how often: from the nonempty unburnt
    set ``fire`` of a burn from q, with that burn's ``burnt`` and ``heat``
    (updated in place).

    The set can fire ``rounds`` times, as often as its members allow.  The
    burn resumes at the multiplicity k = 2 * rounds of :func:`_burn_on`;
    while it leaves a set unburnt, that set, which allows at least k
    firings, takes the place of ``fire``.  The last set left, which no set
    can outdo at twice its count, is returned with its count, and
    ``burnt`` and ``heat`` are put back to those of its burn.
    """
    while True:
        # interior vertices of the set lose nothing when it fires, and a
        # member with heat h > 0 allows coeffs // h firings
        rounds = min(coeffs[v] // heat[v] for v in fire if heat[v])
        k = 2 * rounds
        # a set that can fire k times has a member with an edge out of it,
        # and k chips for each such edge
        if not any(coeffs[v] >= k * (heat[v] or 1) for v in fire):
            return fire, rounds
        loss = [heat[v] for v in fire]
        cap = {v: coeffs[v] // k for v in fire}
        queue = [v for v in fire if heat[v] > cap[v]]
        for v in queue:
            burnt[v] = True
        _burn_on(adjacency, cap, burnt, heat, queue)
        left = [v for v in fire if not burnt[v]]
        if not left:
            for v, h in zip(fire, loss):
                burnt[v] = False
                heat[v] = h
            return fire, rounds
        fire = left


def _require_graph(graph: Multigraph, divisor: Divisor) -> None:
    """Raise :class:`InvalidInputError` unless ``divisor`` is a
    :class:`Divisor`, and :class:`IndexMismatchError` unless it is indexed
    by the graph.  Identity is tested first, so the usual case costs no
    comparison of vertex and edge tuples."""
    if not isinstance(divisor, Divisor):
        raise InvalidInputError(f"expected a Divisor, got {type(divisor).__name__}")
    if divisor.graph is not graph and divisor.graph != graph:
        raise IndexMismatchError("divisor is not indexed by this graph")


def _base_index(graph: Multigraph, divisor: Divisor, q: str) -> int:
    """The index of base vertex q, after checking that the divisor is
    indexed by the graph and q is one of its vertices."""
    _require_graph(graph, divisor)
    return graph.vertex_index(q, "base vertex")


def reduce(graph: Multigraph, divisor: Divisor, q: str) -> ReducedDivisor:
    """The unique q-reduced divisor linearly equivalent to ``divisor``."""
    qi = _base_index(graph, divisor, q)
    coeffs = _reduce_coeffs(graph, list(divisor.coeffs), qi)
    return ReducedDivisor(Divisor(graph, tuple(coeffs)), q)


def is_reduced(graph: Multigraph, divisor: Divisor, q: str) -> bool:
    """Direct test of the q-reduced property (no reduction performed)."""
    qi = _base_index(graph, divisor, q)
    if any(c < 0 for i, c in enumerate(divisor.coeffs) if i != qi):
        return False
    return all(_dhar_burnt(graph, divisor.coeffs, qi)[0])


def is_equivalent(graph: Multigraph, d1: Divisor, d2: Divisor) -> bool:
    """Linear equivalence: equal degree and identical q-reduced forms.
    A divisor of another graph raises :class:`IndexMismatchError`."""
    _require_graph(graph, d1)
    _require_graph(graph, d2)
    if d1.degree != d2.degree:
        return False
    q = graph.vertices[0]
    return reduce(graph, d1, q).divisor == reduce(graph, d2, q).divisor


def has_effective_rep(graph: Multigraph, divisor: Divisor) -> bool:
    """Whether the complete linear system |D| is nonempty.

    True iff the q-reduced form of D is non-negative at q, whatever the
    base q.  The test reduces toward a vertex where D is negative and stops
    as soon as that vertex is non-negative, since after phase 1 it only
    gains chips; see :func:`_effective_rep_raw`.
    """
    _require_graph(graph, divisor)
    if divisor.degree < 0:
        return False
    return _effective_rep_raw(graph, list(divisor.coeffs))


def _effective_rep_raw(graph: Multigraph, coeffs: list[int]) -> bool:
    """Whether the raw coefficient list (mutated) is equivalent to an
    effective divisor.

    D is equivalent to an effective divisor iff its q-reduced form is
    non-negative at q, for any choice of q (Baker-Norine 2007), so q may
    be the first vertex j where D is negative.  After phase 1 of the
    reduction toward j every other vertex is non-negative, and phase 2
    never fires j, so ``coeffs[j]`` only grows from there on; the first
    state with ``coeffs[j] >= 0`` is effective and ends the test.  A list
    whose only negative entry is at j skips phase 1 altogether.
    """
    j = next((v for v, c in enumerate(coeffs) if c < 0), None)
    if j is None:
        return True
    return _reduce_coeffs(graph, coeffs, j, until_effective=True)[j] >= 0


def rank_at_least(graph: Multigraph, divisor: Divisor, r: int) -> bool:
    """Whether the Baker-Norine rank is at least r.

    For deg D > 2g - 2 the verdict is deg D - g >= r, as in :func:`rank`.
    Otherwise D is reduced at the vertex of index 0 and :func:`_rank_core`
    runs the trials.  No anchor screen runs here: the threshold walk of
    :func:`enumerate_classes` and :func:`_scan_rank` screen before they
    check.  A divisor of another graph raises :class:`IndexMismatchError`.
    """
    check_int(r, "r", 0)
    _require_graph(graph, divisor)
    d = divisor.degree
    if d < r:
        return False
    g = genus(graph)
    if d > 2 * g - 2:
        return d - g >= r
    return _rank_core(graph, _reduce_coeffs(graph, list(divisor.coeffs), 0), r)


def _rank_core(graph: Multigraph, base: Sequence[int], r: int) -> bool:
    """Whether the q-reduced coefficients ``base`` (q the vertex of index 0)
    have rank at least r: |D - E| is nonempty for every effective divisor E
    of degree r, and the scan short-circuits on the first failure.

    The first trial is E = r*(q): base - r*(q) is still q-reduced, so that
    trial fails iff base(q) < r, which is checked without a reduction.  For
    r = 1, E = (v) ranges over the set ``A`` that
    :meth:`Multigraph.chain_decomposition` at q records as ``rank_set``:
    the anchors and one vertex of each closed chain, which settle the
    verdict exactly (Luo 2011, Hladky-Kral-Norine 2013); the first trial
    has settled E = (q) already.  These trials run
    in decreasing BFS distance from q, ties in index order, so a failing
    check mostly fails on its first trial; every trial must pass, so the
    order never changes the verdict.  For r >= 2, E ranges over size-r vertex multisets in
    lexicographic index order.
    """
    if base[0] < r:
        return False
    if r == 0:
        return True
    if r == 1:
        # a q-reduced divisor sits near q: the vertex it cannot reach is
        # most often a far one.  rank_set[0] is q, whose trial the test of
        # base[0] above has passed
        far_first = sorted(
            graph.chain_decomposition(0).rank_set[1:],
            key=graph.bfs_distances(0).__getitem__,
            reverse=True,
        )
        trials: Iterable[Sequence[int]] = ((v,) for v in far_first)
    else:
        trials = itertools.combinations_with_replacement(range(len(graph.vertices)), r)
    for combo in trials:
        trial = list(base)
        for i in combo:
            trial[i] -= 1
        if not _effective_rep_raw(graph, trial):
            return False
    return True


def _anchor_screen(graph: Multigraph, qi: int, coeffs: Sequence[int], r: int) -> bool:
    """True when the q-reduced coefficients ``coeffs``, with q the vertex of
    index qi and ``coeffs[qi] >= r``, provably have rank below r, by one
    anchor-graph burn per anchor v with coeffs[v] < r.

    Take the anchors and degree-2 chains of
    :meth:`Multigraph.chain_decomposition` at q.  A q-reduced divisor holds
    at most one chip per chain, so the sum of the chain bits of the
    vertices holding a chip has bit c set exactly when chain c holds one,
    and Dhar's burn from an anchor v burns the whole graph iff the burn on
    the anchor graph reaches every anchor.  The divisor is then v-reduced
    as well, and if coeffs[v] < r the trial r*(v) leaves a v-reduced
    divisor negative at v: the rank is below r.  A False answer decides
    nothing.  q burns only once its heat, at most deg(q), exceeds
    coeffs[qi], so the screen answers False at once when coeffs[qi] >=
    deg(q), as in most checks of r >= 3.

    The answer reads only the values at the anchors and which chains hold
    a chip (Hladky-Kral-Norine 2013), the state that
    :func:`enumerate_classes` keeps as its walk key.
    """
    if coeffs[qi] >= graph.degrees[qi]:
        return False
    bits, links, _, anchors, _ = graph.chain_decomposition(qi)
    held = sum(itertools.compress(bits, coeffs))
    return any(
        coeffs[v] < r and _anchors_burn(links, coeffs, held, v, len(anchors)) for v in anchors
    )


def rank(graph: Multigraph, divisor: Divisor) -> int:
    """The Baker-Norine rank of a divisor.

    -1 when |D| is empty; otherwise the largest r such that removing any
    effective degree-r divisor leaves an effective representative.

    Riemann-Roch for graphs (Baker-Norine 2007) gives
    r(D) = deg D - g + 1 + r(K - D) for every divisor, so the scan of
    :func:`_scan_rank` runs on whichever of D and K - D has the smaller
    degree: on K - D when deg D > g - 1, on D otherwise.  Its cost grows
    with the rank it scans through, and deg(K - D) < g - 1 there.
    """
    _require_graph(graph, divisor)
    d = divisor.degree
    g = genus(graph)
    if d > g - 1:
        return d - g + 1 + _scan_rank(graph, canonical(graph) - divisor)
    return _scan_rank(graph, divisor)


def _scan_rank(graph: Multigraph, divisor: Divisor) -> int:
    """The Baker-Norine rank by the definition: the largest r whose
    :func:`_anchor_screen` passes and whose :func:`_rank_core` holds,
    raised one step at a time from -1 on the divisor's reduced form at the
    first vertex, so no step reduces the divisor again.  That form caps the
    rank at its value at the first vertex.  Two shortcuts, both validated
    against the definition in the test suite: rank never exceeds the
    degree, and for deg D > 2g - 2 the rank equals deg D - g exactly
    (Riemann-Roch)."""
    d = divisor.degree
    if d < 0:
        return -1
    g = genus(graph)
    if d > 2 * g - 2:
        return d - g
    base = _reduce_coeffs(graph, list(divisor.coeffs), 0)
    r = -1
    while (
        r < base[0]
        and not _anchor_screen(graph, 0, base, r + 1)
        and _rank_core(graph, base, r + 1)
    ):
        r += 1
    return r


def transport(iota: RefinementMap, divisor: Divisor) -> Divisor:
    """Push a divisor through a refinement's vertex inclusion: coefficients
    are copied onto the embedded vertices, inserted vertices get 0.
    Degree-preserving and injective."""
    _require_graph(iota.source, divisor)
    return Divisor.from_map(iota.target, divisor.to_map())


def _anchors_burn(
    links: Sequence[Sequence[tuple[int, int, int]]],
    coeffs: Sequence[int],
    held: int,
    qi: int,
    anchors: int,
) -> bool:
    """Whether Dhar's burn from qi on the anchor graph of
    :meth:`Multigraph.chain_decomposition` burns all ``anchors`` anchors.
    A chain whose key bit is set in ``held`` holds a chip and carries no
    fire; every other link carries its multiplicity.  The burn reads only
    the bits its links carry, so other bits of ``held``, such as the
    anchor fields of the walk key, may hold anything."""
    # an anchor has burnt once its heat exceeds its coefficient
    heat = [0] * len(coeffs)
    heat[qi] = coeffs[qi] + 1
    queue = [qi]
    left = anchors - 1
    while queue:
        v = queue.pop()
        for w, m, b in links[v]:
            if heat[w] <= coeffs[w] and not held & b:
                heat[w] += m
                if heat[w] > coeffs[w]:
                    left -= 1
                    if not left:
                        return True
                    queue.append(w)
    return not left


# the most entries each of the two enumerate_classes memos, burn and
# screen, holds: it drops its least recently used entry beyond it
_MEMO_CAP = 1 << 16


def superstable_configs(graph: Multigraph, q: str) -> Iterator[tuple[int, ...]]:
    """All superstable configurations with respect to q: the classes of
    :func:`enumerate_classes` without a threshold, with 0 in the q slot,
    in the same order.

    Full coefficient tuples inside the box 0 <= a_v <= degree(v) - 1 away
    from q, in lexicographic order of the off-q coordinates (canonical
    vertex order, q skipped).  The number of results equals the number of
    spanning trees.
    """
    qi = graph.vertex_index(q, "base vertex")
    for coeffs in enumerate_classes(graph, q, 0):
        yield coeffs[:qi] + (0,) + coeffs[qi + 1 :]


def enumerate_classes(
    graph: Multigraph, q: str, d: int, r: Optional[int] = None, limit: Optional[int] = None
) -> Iterator[tuple]:
    """Every q-reduced divisor of degree d, exactly once, as its coefficient
    tuple; with a threshold r, only those that may have rank r or more.

    One representative per linear-equivalence class; the count equals the
    spanning tree number of the graph, independently of d.  Away from q the
    tuples are the superstable configurations, in lexicographic order of
    the off-q coordinates (canonical vertex order, q skipped) inside the
    box 0 <= a_v <= degree(v) - 1; the q slot holds d minus their chips.
    Wrap a tuple as ``Divisor(graph, coeffs)`` where a divisor is needed.

    With a threshold r the walk yields ``(position, coeffs)`` pairs, in the
    same order, only for the classes with ``coeffs[q] >= r`` that
    :func:`_anchor_screen` does not reject: every other class has rank
    below r.  ``position`` is the class's 0-based index in the walk without
    a threshold.  A last ``(total, None)`` follows them, where ``total`` is
    the number of classes.  A ``limit``, an integer >= 0 given only with a
    threshold, ends the walk at that position: it yields no position at or
    above ``limit``, and ends with ``(limit + 1, None)`` if a class lies
    there.  A ``limit`` without a threshold, a ``d`` that is not an
    integer, or an ``r`` that is not an integer >= 0 raises
    :class:`InvalidInputError`.

    Superstables are closed downward (removing chips never stops a vertex
    from burning), so a prefix extends to a superstable iff the prefix
    padded with zeros is one.  The lexicographic successor is therefore
    found by scanning positions right to left: bump the coordinate by 1
    and accept the first bump that stays in the box and is superstable;
    otherwise reset it to 0 and move left.  The walk is a flat loop, so
    its depth does not grow with the vertex count.  ``spare`` counts the
    chips left for q: a bump takes one, a reset gives back what it clears.

    Superstability is tested on the anchors of
    :meth:`Multigraph.chain_decomposition` rather than on every vertex.  A
    chain vertex has degree 2, so it holds 0 or 1 chip.  In Dhar's burn a
    chain with no chip passes fire from either end to the other, like one edge;
    a chain with one chip passes none, and burns once both its ends have
    burnt; a chain with two chips never burns.  So a configuration is
    superstable iff every chain holds at most one chip and the burn on the
    anchor graph, whose edges are the direct anchor-anchor edges plus the
    chip-free chains between two different anchors, burns every anchor.
    The burn counts q as burnt from the start, whatever its slot holds.

    The anchor burn thus reads only the values at the anchors other than q
    and which chains hold a chip, never which vertex of a chain holds it.
    The walk keeps that state, and no other copy of it, as one integer
    ``key``: chain c owns bit c, the bit its links in the chain
    decomposition carry, and each anchor v other than q a field
    ``degree(v).bit_length()`` bits wide above the chain bits, which holds
    every value up to degree(v).  ``weight[v]`` is the lowest bit of the
    field of v, or the chain bit the decomposition gives v; a bump adds it
    and a reset subtracts the value cleared times it.  A bump into a chain
    whose bit is set is rejected without a burn.  Each burn verdict is
    stored in ``burns`` under its key, and a key seen before is decided
    without a burn.

    Once a bump leaves ``spare <= r``, every class that adds chips right
    of it holds fewer than r chips at q.  The walk counts that block of
    classes instead of walking it, and goes on by bumping the same
    coordinate again.  The count is a weighted depth-first search with an
    explicit stack, in which each class of the block branches on where its
    next chip goes, right of its last one.  An anchor takes each value
    whose burn passes.  A chip-free chain takes its chip as one branch, at
    its first position the class reaches, weighted by ``rest``, the number
    of its positions from there on, wherever they sit in the vertex order,
    since the burn sees only the chain's chip count.  Past that branch the
    class leaves the chain empty: it adds the chain's bit to its mask of
    empty chains and skips the chain's later positions, so a chain split
    into several runs of the vertex order is still counted once.  A run
    of consecutive positions in one chain is skipped in one step.  The
    count stops as soon as it passes what ``limit`` leaves.

    The screen reads the same state as the anchor burn, through the chain
    bits of the chip-holding vertices, and ``key`` fixes the q slot too, so
    ``screened`` keeps the screen's verdict per key.  ``burns`` and
    ``screened`` are :func:`functools.lru_cache` memos of ``_MEMO_CAP``
    entries, so their memory stays bounded on large graphs.
    """
    qi = graph.vertex_index(q, "base vertex")
    check_int(d, "d")
    if r is not None:
        check_int(r, "r", 0)
    degrees = graph.degrees
    bits, links, chains, anchor_list, _ = graph.chain_decomposition(qi)
    anchors = len(anchor_list)
    weight = list(bits)
    shift = chains + 1
    for v in anchor_list:
        if v != qi:
            weight[v] = 1 << shift
            shift += degrees[v].bit_length()
    key = 0
    coeffs = [0] * len(graph.vertices)
    memo = lru_cache(maxsize=_MEMO_CAP)
    burns = memo(lambda key: _anchors_burn(links, coeffs, key, qi, anchors))
    screened = memo(lambda key: _anchor_screen(graph, qi, coeffs, r))
    order = [i for i in range(len(graph.vertices)) if i != qi]
    size = len(order)
    # the chain bit at each position (0 at an anchor, and past the end),
    # the end of the run of consecutive positions in the same chain from
    # there on, and the number of that chain's positions from there on
    bit = [bits[v] for v in order] + [0]
    run_end = list(range(1, size + 1))
    rest = [0] * size
    later: dict[int, int] = {}
    for p in range(size - 1, -1, -1):
        rest[p] = later[bit[p]] = later.get(bit[p], 0) + 1
        if bit[p] and bit[p + 1] == bit[p]:
            run_end[p] = run_end[p + 1]
    spare = d
    if limit is None:
        limit = math.inf
    elif r is None:
        raise InvalidInputError("enumerate_classes reads a limit only with a threshold r")
    else:
        check_int(limit, "limit", 0)

    def count(p: int, key: int, cap: float) -> int:
        """The superstables that agree with ``coeffs`` before position p,
        if there are at most ``cap`` of them, else a number above cap."""
        total = 1
        # open classes: [next position, key, multiplier, value at the next
        # position, chains left empty]
        frames = [[p, key, 1, 0, 0]]
        while frames:
            frame = frames[-1]
            p, key, mult, a, empty = frame
            while p < size:
                b = bit[p]
                if b:
                    if not a and not (key | empty) & b and burns(key + b):
                        a = 1
                        break
                    a = 0
                    empty |= b
                    p = run_end[p]
                else:
                    v = order[p]
                    a += 1
                    if a < degrees[v]:
                        coeffs[v] = a
                        if burns(key + a * weight[v]):
                            break
                    coeffs[v] = a = 0
                    p += 1
            else:
                frames.pop()
                continue
            frame[0], frame[3], frame[4] = p, a, empty
            if b:
                mult *= rest[p]
                frames.append([run_end[p], key + b, mult, 0, empty])
            else:
                frames.append([p + 1, key + a * weight[v], mult, 0, empty])
            total += mult
            if total > cap:
                return total
        return total

    position = 0
    j = -1  # the position of the last bump: none yet
    while True:
        coeffs[qi] = spare
        if r is None:
            yield tuple(coeffs)
            j = size - 1
        else:
            if spare >= r and position < limit and not screened(key):
                yield position, tuple(coeffs)
            if spare > r:
                position += 1
                j = size - 1
            else:
                position += count(j + 1, key, limit - position)
            if position > limit:
                yield limit + 1, None
                return
        for j in range(j, -1, -1):
            v = order[j]
            a = coeffs[v]
            # a chain vertex has degree 2, and takes a chip only while its
            # chain holds none; an anchor's chain bit is 0
            if a + 1 < degrees[v] and not key & bit[j]:
                a += 1
                coeffs[v] = a
                spare -= 1
                key += weight[v]
                if burns(key):
                    break
            if a:
                coeffs[v] = 0
                spare += a
                key -= a * weight[v]
        else:
            if r is not None:
                yield position, None
            return


def riemann_roch_residual(graph: Multigraph, divisor: Divisor) -> int:
    """rank(D) - rank(K - D) - deg(D) + g - 1; zero for every divisor by
    the Riemann-Roch theorem for graphs.  Exposed as a correctness oracle,
    so both ranks come from :func:`_scan_rank`: :func:`rank` applies the
    theorem itself, which would make the residual zero by construction.
    The oracle checks something only for 0 <= deg D <= 2g - 2: outside
    that range :func:`_scan_rank` answers -1 on one side and deg - g on
    the other, so the residual is zero by construction there too."""
    _require_graph(graph, divisor)
    k = canonical(graph)
    return (
        _scan_rank(graph, divisor)
        - _scan_rank(graph, k - divisor)
        - divisor.degree
        + genus(graph)
        - 1
    )
