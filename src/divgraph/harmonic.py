"""Harmonic morphisms of multigraphs and divisor transport along them.

A morphism here maps vertices to vertices and edges to edges (stretching
factor 1; no edge is contracted or dilated).  It is harmonic when, at every
source vertex v, each target edge incident to the image of v is hit by
exactly m(v) source edges at v; the fiber sum of the local degrees m(v) is
then the same over every target vertex and defines the global degree.
Harmonic morphisms satisfy the graph Riemann-Hurwitz identity and pull
divisors back with degree multiplied by the global degree.

Edge contractions are kept as a separate, simpler kind of map: they merge
vertex classes and push divisors forward by summing coefficients over each
class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .divisors import Divisor, _require_graph
from .errors import (
    EndpointMismatchError,
    InvalidInputError,
    LoopEdgeError,
    NotHarmonicError,
    UnknownVertexError,
    check_int,
    check_type,
)
from .graphs import Multigraph, build_graph, genus


@dataclass(frozen=True)
class GraphMorphism:
    """A stretching-factor-1 map between multigraphs.

    ``vertex_map[i]`` is the target vertex index of source vertex i;
    ``edge_map[e]`` the target edge index (into the target's expanded
    :attr:`Multigraph.edge_list`) of expanded source edge e; and
    ``local_degree[i]`` the claimed degree m(v) at source vertex i.
    ``marked_legs`` carries optional branch/ramification leg marks per
    source vertex, kept for reporting only; they enter neither the
    harmonicity check nor the Riemann-Hurwitz identity.
    Use :func:`build_morphism`; the raw constructor does not validate.
    """

    source: Multigraph
    target: Multigraph
    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]
    local_degree: tuple[int, ...]
    marked_legs: tuple[int, ...] = ()

    def marked_leg_map(self) -> dict[str, int]:
        if not self.marked_legs:
            return {}
        return {
            v: n for v, n in zip(self.source.vertices, self.marked_legs) if n
        }

    @cached_property
    def report(self) -> "HarmonicReport":
        return check_harmonic(self)


@dataclass(frozen=True)
class HarmonicReport:
    harmonic: bool
    degree: Optional[int]
    violations: tuple[dict, ...]


def build_morphism(
    source: Multigraph,
    target: Multigraph,
    vertex_map: dict[str, str],
    edge_map: Sequence[tuple[Sequence, Sequence]],
    local_degree: Optional[dict[str, int]] = None,
    marked_legs: Optional[dict[str, int]] = None,
) -> GraphMorphism:
    """Validate and construct a :class:`GraphMorphism`.

    ``edge_map`` pairs source edge references with target edge references;
    an edge reference is (u, v) or (u, v, copy) with copy defaulting to 0.
    ``local_degree`` defaults to 1 wherever omitted; ``marked_legs``
    defaults to 0.  Only None takes the default; any other value that is
    not an object raises, falsy or not.

    Every vertex name goes through :meth:`Multigraph.vertex_index`, a
    ``vertex_map`` image before its key.  Each two-element edge reference
    of exact strings takes one lookup of its edge record (two when it
    names the edge against the stored orientation); endpoints are then
    compared as vertex indices.  A reference that misses (a name that is
    not an exact ``str`` or not a vertex, a three-element reference, an
    absent edge) goes through :meth:`Multigraph.edge_index`, which raises
    the errors.  Structural failures (unmapped or repeated
    edges, endpoints that do not track the vertex map) raise, in that
    order, and a mismatch names the first such edge of ``edge_list``;
    harmonicity itself is judged by :func:`check_harmonic`.
    """
    vmap = [-1] * len(source.vertices)
    for v, w in check_type(vertex_map, "object", "vertex_map").items():
        # the image is checked before the key
        j = target.vertex_index(w, "vertex_map image")
        vmap[source.vertex_index(v, "vertex_map key")] = j
    if -1 in vmap:
        v = source.vertices[vmap.index(-1)]
        raise UnknownVertexError(f"vertex_map does not cover source vertex {v!r}")

    def edge_ref(graph: Multigraph, ref: Sequence) -> int:
        if isinstance(ref, (list, tuple)) and len(ref) == 2:
            u, v = ref
            if type(u) is str and type(v) is str:
                records = graph._edge_records
                record = records.get((u, v)) or records.get((v, u))
                if record is not None:
                    return record[0]
        if not isinstance(ref, (list, tuple)) or len(ref) not in (2, 3):
            raise InvalidInputError(f"edge reference {ref!r} is not (u, v[, copy])")
        u, v, copy = ref if len(ref) == 3 else (*ref, 0)
        return graph.edge_index(u, v, check_int(copy, "edge copy index"))

    # once resolved, a reference's first two entries are its edge's endpoints
    sindex, tindex = source.index, target.index
    emap = [-1] * source.num_edges
    # the first source edge, in edge_list order, whose endpoints do not track
    bad = source.num_edges
    for entry in check_type(edge_map, "array", "edge_map"):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise InvalidInputError(f"edge_map entry {entry!r} is not [source_edge, target_edge]")
        src_ref, tgt_ref = entry
        e = edge_ref(source, src_ref)
        if emap[e] >= 0:
            raise InvalidInputError(f"source edge {src_ref!r} mapped twice")
        emap[e] = edge_ref(target, tgt_ref)
        a, b = vmap[sindex[src_ref[0]]], vmap[sindex[src_ref[1]]]
        ta, tb = tindex[tgt_ref[0]], tindex[tgt_ref[1]]
        if e < bad and not (a == ta and b == tb or a == tb and b == ta):
            bad = e
    if -1 in emap:
        missing = [source.edge_list[e] for e, te in enumerate(emap) if te < 0]
        raise InvalidInputError(f"edge_map does not cover source edges {missing}")
    if bad < source.num_edges:
        u, v = source.edge_list[bad]
        tu, tv = target.edge_list[emap[bad]]
        images = sorted({target.vertices[vmap[sindex[u]]], target.vertices[vmap[sindex[v]]]})
        raise EndpointMismatchError(
            f"edge ({u},{v}) maps to ({tu},{tv}) but its endpoints map to {images}"
        )

    degrees = [1] * len(source.vertices)
    if local_degree is not None:
        for v, m in check_type(local_degree, "object", "local_degree").items():
            degrees[source.vertex_index(v, "local_degree key")] = check_int(
                m, f"local degree at {v!r}", 1
            )
    legs = [0] * len(source.vertices)
    if marked_legs is not None:
        for v, n in check_type(marked_legs, "object", "marked_legs").items():
            legs[source.vertex_index(v, "marked_legs key")] = check_int(
                n, f"marked leg count at {v!r}", 0
            )

    return GraphMorphism(
        source=source,
        target=target,
        vertex_map=tuple(vmap),
        edge_map=tuple(emap),
        local_degree=tuple(degrees),
        marked_legs=tuple(legs) if marked_legs else (),
    )


def identity_morphism(graph: Multigraph) -> GraphMorphism:
    n_edges = len(graph.edge_list)
    return GraphMorphism(
        source=graph,
        target=graph,
        vertex_map=tuple(range(len(graph.vertices))),
        edge_map=tuple(range(n_edges)),
        local_degree=(1,) * len(graph.vertices),
    )


def _labels_at(graph: Multigraph, labels: Sequence[int]) -> list[list[int]]:
    """Per vertex index, the labels of the edges at that vertex, where
    ``labels[e]`` labels expanded edge e (see :attr:`Multigraph.edge_list`).
    Each edge record takes one lookup per endpoint."""
    index = graph.index
    at: list[list[int]] = [[] for _ in graph.vertices]
    pos = 0
    for u, v, m in graph.edges:
        copies = labels[pos:pos + m]
        at[index[u]].extend(copies)
        at[index[v]].extend(copies)
        pos += m
    return at


def check_harmonic(f: GraphMorphism) -> HarmonicReport:
    """Verify harmonicity and the constant-global-degree condition.

    Reports every violating (vertex, target edge) pair where the count of
    source edges at the vertex over that target edge differs from the local
    degree, and every target vertex whose fiber sum of local degrees breaks
    the constant.

    The images of the edges at each source vertex are gathered per vertex
    index, one lookup per edge record endpoint.  A vertex is harmonic when
    they are, sorted, the target edges at its image, each repeated m(v)
    times; only a vertex where they are not counts its hits per target
    edge.
    """
    src, tgt = f.source, f.target
    violations: list[dict] = []

    images_at = _labels_at(src, f.edge_map)
    tgt_edges_at = _labels_at(tgt, range(tgt.num_edges))
    for v, w, m, images in zip(src.vertices, f.vertex_map, f.local_degree, images_at):
        want = tgt_edges_at[w]
        images.sort()
        if images == (want if m == 1 else [te for te in want for _ in range(m)]):
            continue
        counts = dict.fromkeys(want, 0)
        for te in images:
            counts[te] += 1
        for te in want:
            if counts[te] != m:
                tu, tv = tgt.edge_list[te]
                violations.append(
                    {
                        "kind": "local",
                        "vertex": v,
                        "target_edge": [tu, tv, _edge_copy(tgt, te)],
                        "count": counts[te],
                        "expected": m,
                    }
                )

    fiber_sums = [0] * len(tgt.vertices)
    for i in range(len(src.vertices)):
        fiber_sums[f.vertex_map[i]] += f.local_degree[i]
    degree: Optional[int] = fiber_sums[0] if fiber_sums else None
    if len(set(fiber_sums)) > 1:
        degree = None
        for w, s in zip(tgt.vertices, fiber_sums):
            violations.append({"kind": "degree", "target_vertex": w, "fiber_sum": s})

    return HarmonicReport(
        harmonic=not violations,
        degree=degree if not violations else None,
        violations=tuple(violations),
    )


def _edge_copy(graph: Multigraph, e: int) -> int:
    """Copy index of expanded edge e among its parallel copies."""
    u, v = graph.edge_list[e]
    return e - graph.edge_index(u, v, 0)


@dataclass(frozen=True)
class RHReport:
    lhs: int
    rhs: int
    degree: int
    ramification: int
    balanced: bool
    marked_legs: tuple[tuple[str, int], ...] = ()


def riemann_hurwitz_check(f: GraphMorphism) -> RHReport:
    """Evaluate both sides of 2g(source) - 2 = deg * (2g(target) - 2)
    + sum_v 2(m(v) - 1).  Raises :class:`NotHarmonicError` when the input
    is not harmonic; for harmonic maps the identity always balances.
    Marked branch/ramification legs are echoed but never enter the sum."""
    report = f.report
    if not report.harmonic:
        raise NotHarmonicError(f"morphism is not harmonic: {report.violations}")
    assert report.degree is not None
    ram = sum(2 * (m - 1) for m in f.local_degree)
    lhs = 2 * genus(f.source) - 2
    rhs = report.degree * (2 * genus(f.target) - 2) + ram
    return RHReport(
        lhs=lhs,
        rhs=rhs,
        degree=report.degree,
        ramification=ram,
        balanced=lhs == rhs,
        marked_legs=tuple(sorted(f.marked_leg_map().items())),
    )


def pullback(f: GraphMorphism, divisor: Divisor) -> Divisor:
    """Pull a target divisor back: (f*D)(v) = m(v) * D(f(v)).  The degree
    multiplies by the global degree of the morphism."""
    _require_graph(f.target, divisor)
    if not f.report.harmonic:
        raise NotHarmonicError("pullback requires a harmonic morphism")
    coeffs = tuple(
        f.local_degree[i] * divisor.coeffs[f.vertex_map[i]]
        for i in range(len(f.source.vertices))
    )
    return Divisor(f.source, coeffs)


@dataclass(frozen=True)
class Contraction:
    """Contraction of a set of edge bonds: every parallel copy between the
    chosen vertex pairs is collapsed and their endpoint classes merged.
    Each target vertex is named after the earliest source vertex of its
    class."""

    source: Multigraph
    target: Multigraph
    vertex_class: tuple[int, ...]  # target vertex index per source vertex
    contracted_pairs: tuple[tuple[str, str], ...]


def contract(graph: Multigraph, pairs: Sequence[Sequence[str]]) -> Contraction:
    """Contract the edge bonds between the given vertex pairs.

    Raises :class:`LoopEdgeError` if a surviving edge would join a class to
    itself (only whole bonds can be contracted, so this happens exactly when
    an uncontracted bond has both endpoints merged through other pairs).
    """
    n = len(graph.vertices)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    norm_pairs: list[tuple[str, str]] = []
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InvalidInputError(f"contraction pair {pair!r} is not (u, v)")
        u, v = pair
        ru = find(graph.vertex_index(u, "contraction endpoint"))
        rv = find(graph.vertex_index(v, "contraction endpoint"))
        if graph.multiplicity(u, v) == 0:
            raise UnknownVertexError(f"no edge bond between {u!r} and {v!r} to contract")
        norm_pairs.append((u, v))
        if ru != rv:
            # keep the smaller canonical index as representative
            lo, hi = min(ru, rv), max(ru, rv)
            parent[hi] = lo

    reps: list[int] = []
    rep_index: dict[int, int] = {}
    for i in range(n):
        root = find(i)
        if root not in rep_index:
            rep_index[root] = len(reps)
            reps.append(root)
    classes = tuple(rep_index[find(i)] for i in range(n))

    contracted = {frozenset(p) for p in norm_pairs}
    target_vertices = tuple(graph.vertices[r] for r in reps)
    target_edges: list[tuple[str, str, int]] = []
    for u, v, m in graph.edges:
        if frozenset((u, v)) in contracted:
            continue
        cu, cv = classes[graph.index[u]], classes[graph.index[v]]
        if cu == cv:
            raise LoopEdgeError(
                f"contracting would turn the bond ({u},{v}) into a loop"
            )
        target_edges.append((target_vertices[cu], target_vertices[cv], m))

    target = build_graph(target_vertices, target_edges)
    return Contraction(
        source=graph,
        target=target,
        vertex_class=classes,
        contracted_pairs=tuple(norm_pairs),
    )


def pushforward_contraction(pi: Contraction, divisor: Divisor) -> Divisor:
    """Push a divisor through a contraction: each target coefficient is the
    sum over its source class.  Degree-preserving and additive."""
    _require_graph(pi.source, divisor)
    coeffs = [0] * len(pi.target.vertices)
    for i, c in enumerate(divisor.coeffs):
        coeffs[pi.vertex_class[i]] += c
    return Divisor(pi.target, tuple(coeffs))
