"""Finite connected loopless multigraphs and their homothetic refinements.

Vertices are arbitrary strings.  The vertex order given at construction is
canonical and fixes all matrix rows and coefficient positions, so results
that depend on indexing (Laplacians, enumeration order, inserted-vertex
names) are reproducible.  Edges are stored multiplicity-compressed.

All types are immutable after construction; derived data (adjacency,
degrees, BFS distances, chain decompositions) is cached lazily on the
instance and never mutates the defining fields, so graphs can be shared
read-only across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    DisconnectedError,
    EmptyVertexSetError,
    InvalidInputError,
    LoopEdgeError,
    UnknownVertexError,
    check_int,
    check_type,
)

EdgeSpec = Sequence  # (u, v) or (u, v, multiplicity)

# Separator used when naming vertices inserted by refinement.  Chosen so the
# generated names read as "u:v:copy:position".
_REFINE_SEP = ":"

# The most vertices, and the most edges counted with multiplicity, that a
# built-in family or a refinement may build.  A larger request raises
# InvalidInputError before anything is allocated.
MAX_GRAPH_SIZE = 100_000


def check_graph_size(vertices: int, edges: int, what: str) -> None:
    """Raise :class:`InvalidInputError` when a graph about to be built would
    exceed :data:`MAX_GRAPH_SIZE` vertices or edges."""
    if max(vertices, edges) > MAX_GRAPH_SIZE:
        raise InvalidInputError(
            f"{what} would have {vertices} vertices and {edges} edges; "
            f"the limit is {MAX_GRAPH_SIZE} of each"
        )


@dataclass(frozen=True)
class Multigraph:
    """A finite weightless connected multigraph without loop edges.

    ``vertices`` is the canonical vertex order; ``edges`` holds one record
    per unordered vertex pair that carries at least one edge, with its
    multiplicity.  Use :func:`build_graph` rather than the raw constructor;
    the constructor does not validate.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, int], ...]

    def __repr__(self) -> str:
        return f"Multigraph({len(self.vertices)} vertices, {self.num_edges} edges)"

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.vertices)}

    def vertex_index(self, name: str, what: str = "vertex") -> int:
        """The index of vertex ``name``, named ``what`` in the errors: a name
        that is not a string raises :class:`InvalidInputError` (so ``1``
        never matches ``"1"``), an unknown one :class:`UnknownVertexError`."""
        i = self.index.get(check_type(name, "string", what))
        if i is None:
            raise UnknownVertexError(f"unknown {what} {name!r}")
        return i

    @cached_property
    def num_edges(self) -> int:
        """Edge count with multiplicity."""
        return sum(m for _, _, m in self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex index, the (neighbor index, multiplicity) pairs."""
        adj: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        idx = self.index
        for u, v, m in self.edges:
            ui, vi = idx[u], idx[v]
            adj[ui].append((vi, m))
            adj[vi].append((ui, m))
        return tuple(tuple(a) for a in adj)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sum(m for _, m in nbrs) for nbrs in self.adjacency)

    @cached_property
    def edge_list(self) -> tuple[tuple[str, str], ...]:
        """Edges expanded to one entry per parallel copy, in storage order."""
        out: list[tuple[str, str]] = []
        for u, v, m in self.edges:
            out.extend((u, v) for _ in range(m))
        return tuple(out)

    @cached_property
    def _edge_records(self) -> dict[tuple[str, str], tuple[int, int]]:
        """Per stored edge record ``(u, v)``, the position of its first
        parallel copy in :attr:`edge_list` and its multiplicity.  The keys
        are the pairs of :attr:`edge_list` in their stored orientation, so
        the index allocates no key objects of its own."""
        pairs = self.edge_list
        records = {}
        pos = 0
        for _, _, m in self.edges:
            records[pairs[pos]] = (pos, m)
            pos += m
        return records

    def _edge_record(self, u: str, v: str) -> Optional[tuple[int, int]]:
        """The record of the edges between u and v, or None.  Two strings
        that name an edge are answered by the lookup alone; otherwise both
        names go through :meth:`vertex_index`, which raises for a name
        that is not a string or not a vertex."""
        if isinstance(u, str) and isinstance(v, str):
            records = self._edge_records
            record = records.get((u, v)) or records.get((v, u))
            if record is not None:
                return record
        self.vertex_index(u, "edge endpoint")
        self.vertex_index(v, "edge endpoint")
        return None

    def edge_index(self, u: str, v: str, copy: int = 0) -> int:
        """Position of the ``copy``-th parallel edge between u and v in
        :attr:`edge_list`.  Accepts either endpoint order; both names go
        through :meth:`vertex_index`."""
        record = self._edge_record(u, v)
        if record is None:
            raise UnknownVertexError(f"no edge between {u!r} and {v!r}")
        pos, m = record
        if not 0 <= copy < m:
            raise InvalidInputError(f"edge ({u},{v}) has multiplicity {m}, no copy {copy}")
        return pos + copy

    def multiplicity(self, u: str, v: str) -> int:
        """The number of parallel edges between u and v, 0 when they are not
        adjacent.  Both names go through :meth:`vertex_index`."""
        record = self._edge_record(u, v)
        return 0 if record is None else record[1]

    @cached_property
    def _bfs_cache(self) -> dict[int, tuple[int, ...]]:
        return {}

    def bfs_distances(self, root: int) -> tuple[int, ...]:
        """Hop distances from vertex index ``root`` (multiplicity ignored)."""
        cache = self._bfs_cache
        if root not in cache:
            dist = [-1] * len(self.vertices)
            dist[root] = 0
            frontier = [root]
            while frontier:
                nxt = []
                for v in frontier:
                    for w, _ in self.adjacency[v]:
                        if dist[w] < 0:
                            dist[w] = dist[v] + 1
                            nxt.append(w)
                frontier = nxt
            cache[root] = tuple(dist)
        return cache[root]

    @cached_property
    def _chain_cache(self) -> dict[int, "ChainDecomposition"]:
        return {}

    def chain_decomposition(self, root: int) -> "ChainDecomposition":
        """Split the graph into anchors and chains of degree-2 vertices.

        Anchors are vertex index ``root`` and every vertex of degree other
        than 2; a chain is a maximal path of degree-2 vertices between two
        anchors, or from an anchor back to itself.  The chains are numbered
        from 1 to ``chains``, and ``bits[v]`` is the key bit ``1 << c`` of
        v's chain c, or 0 at an anchor.  ``links[a]`` lists the
        anchor-graph edges at anchor a as ``(anchor, multiplicity, chain
        bit)``, one per direct anchor-anchor edge record (chain bit 0) and
        one unit edge per chain ending at two different anchors (its key
        bit); ``anchors`` lists the anchor indices.

        ``rank_set`` is the set ``A``, in index order, on which rank-1
        trials suffice: the anchors, plus the lowest-index vertex of each
        chain that closes on one anchor.  ``A`` is the vertex set of a
        loopless model of the metric graph: a chain between two different
        anchors becomes one edge, and a closed chain two edges through its
        chosen vertex.  So ``A`` is rank-determining (Luo,
        "Rank-determining sets of metric graphs", JCTA 2011), and since
        ranks on the graph equal ranks on its metric graph
        (Hladky-Kral-Norine, "Rank of divisors on tropical curves", JCTA
        2013), D has rank >= 1 iff D - v is equivalent to an effective
        divisor for every v in ``A``.

        The walk is iterative, so long cycles are fine.
        """
        cache = self._chain_cache
        if root not in cache:
            n = len(self.vertices)
            adjacency = self.adjacency
            degrees = self.degrees
            anchor = [v == root or degrees[v] != 2 for v in range(n)]
            bits = [0] * n
            links: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
            closed = []
            chains = 0
            for a in range(n):
                if not anchor[a]:
                    continue
                for w, m in adjacency[a]:
                    if anchor[w]:
                        links[a].append((w, m, 0))
                    elif not bits[w]:
                        chains += 1
                        bit = 1 << chains
                        prev, v, low = a, w, w
                        while not anchor[v]:
                            bits[v] = bit
                            low = min(low, v)
                            # two single edges, or one double edge back to prev
                            nbrs = adjacency[v]
                            nxt = nbrs[0][0] if nbrs[0][0] != prev else nbrs[-1][0]
                            prev, v = v, nxt
                        if v != a:
                            links[a].append((v, 1, bit))
                            links[v].append((a, 1, bit))
                        else:
                            closed.append(low)
            anchors = tuple(v for v in range(n) if anchor[v])
            cache[root] = ChainDecomposition(
                tuple(bits),
                tuple(tuple(ls) for ls in links),
                chains,
                anchors,
                tuple(sorted(anchors + tuple(closed))),
            )
        return cache[root]


class ChainDecomposition(NamedTuple):
    """The anchors and degree-2 chains of :meth:`Multigraph.chain_decomposition`,
    with each vertex's chain bit and the rank-determining set ``A``."""

    bits: tuple[int, ...]
    links: tuple[tuple[tuple[int, int, int], ...], ...]
    chains: int
    anchors: tuple[int, ...]
    rank_set: tuple[int, ...]


def build_graph(vertices: Iterable[str], edges: Iterable[EdgeSpec]) -> Multigraph:
    """Validate and construct a :class:`Multigraph`.

    ``edges`` entries are ``(u, v)`` or ``(u, v, multiplicity)``.  Parallel
    records for the same pair are merged by summing multiplicities.

    Raises :class:`EmptyVertexSetError`, :class:`UnknownVertexError`,
    :class:`LoopEdgeError`, :class:`DisconnectedError` or
    :class:`InvalidInputError` (a vertex name or endpoint that is not a
    string, bad multiplicity, duplicate vertex names).
    """
    verts = tuple(check_type(v, "string", "vertex name") for v in vertices)
    if not verts:
        raise EmptyVertexSetError("a graph needs at least one vertex")
    if len(set(verts)) != len(verts):
        raise InvalidInputError("duplicate vertex names")
    known = set(verts)

    merged: dict[frozenset[str], tuple[str, str, int]] = {}
    for spec in edges:
        if not isinstance(spec, (list, tuple)) or len(spec) not in (2, 3):
            raise InvalidInputError(f"edge spec {spec!r} is not (u, v[, mult])")
        u, v, m = spec if len(spec) == 3 else (*spec, 1)
        check_type(u, "string", "edge endpoint")
        check_type(v, "string", "edge endpoint")
        if u not in known:
            raise UnknownVertexError(f"edge endpoint {u!r} is not a declared vertex")
        if v not in known:
            raise UnknownVertexError(f"edge endpoint {v!r} is not a declared vertex")
        if u == v:
            raise LoopEdgeError(f"loop edge at {u!r}")
        if type(m) is not int or m < 1:
            check_int(m, f"edge ({u},{v}) multiplicity", 1)
        key = frozenset((u, v))
        if key in merged:
            a, b, prev = merged[key]
            merged[key] = (a, b, prev + m)
        else:
            merged[key] = (u, v, m)

    graph = Multigraph(verts, tuple(merged.values()))
    if len(verts) > 1:
        dist = graph.bfs_distances(0)
        if any(d < 0 for d in dist):
            missing = [verts[i] for i, d in enumerate(dist) if d < 0]
            raise DisconnectedError(f"vertices unreachable from {verts[0]!r}: {missing}")
    return graph


def genus(graph: Multigraph) -> int:
    """First Betti number g = 1 - |V| + |E|, edges counted with multiplicity."""
    return 1 - len(graph.vertices) + graph.num_edges


def laplacian(graph: Multigraph) -> list[list[int]]:
    """Combinatorial Laplacian: degree on the diagonal, minus multiplicity
    off it.  Rows follow the canonical vertex order."""
    n = len(graph.vertices)
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = graph.degrees[i]
        for j, m in graph.adjacency[i]:
            mat[i][j] -= m
    return mat


def _bareiss_determinant(a: list[list[int]]) -> int:
    """Fraction-free exact determinant (Bareiss elimination) of a positive
    semidefinite matrix, such as the Laplacian minor that
    :func:`kirchhoff_minor_determinant` cuts from :func:`laplacian`; ``a``
    is eliminated in place, so the caller hands over a matrix it no longer
    needs.

    The k-th pivot is the leading principal minor of order k + 1 (Bareiss
    1968), so it needs no row exchange: for a positive definite matrix
    every pivot is positive, and for a positive semidefinite one a zero
    leading principal minor means the determinant is zero.

    Step k reads the pivot row once and rewrites the tail of each row below
    it, past column k, in one pass over that tail zipped with the pivot
    row's.  A row with a zero multiplier ``a[i][k]`` is only scaled by
    ``pivot / prev``, and left as it is when ``pivot == prev``: every
    division is exact, so the entries stay integers.  Column k below the
    pivot is never read again, so it is not cleared.
    """
    n = len(a)
    if n == 0:
        return 1
    prev = 1
    for k in range(n - 1):
        pivot_row = a[k]
        pivot = pivot_row[k]
        if pivot == 0:
            return 0
        tail = pivot_row[k + 1:]
        for row in a[k + 1:]:
            m = row[k]
            if m:
                row[k + 1:] = [(x * pivot - m * y) // prev for x, y in zip(row[k + 1:], tail)]
            elif pivot != prev:
                row[k + 1:] = [x * pivot // prev for x in row[k + 1:]]
        prev = pivot
    return a[n - 1][n - 1]


def kirchhoff_minor_determinant(graph: Multigraph, drop: int = 0) -> int:
    """Determinant of the Laplacian with row and column ``drop`` deleted.

    By the matrix-tree theorem this equals the spanning tree count for any
    choice of ``drop``.  The minor is the matrix of :func:`laplacian` with
    row and column ``drop`` deleted in place, eliminated in place by
    :func:`_bareiss_determinant`, in exact integers.  ``drop`` must be a
    vertex index: an integer from 0 to ``len(graph.vertices) - 1``, else
    :class:`InvalidInputError`.
    """
    n = len(graph.vertices)
    if check_int(drop, "drop", 0) >= n:
        raise InvalidInputError(f"drop must be a vertex index below {n}, got {drop}")
    minor = laplacian(graph)
    del minor[drop]
    for row in minor:
        del row[drop]
    return _bareiss_determinant(minor)


def spanning_tree_count(graph: Multigraph) -> int:
    """Number of spanning trees, exact: by the matrix-tree theorem
    (Kirchhoff), the Bareiss determinant of the Laplacian with the first
    vertex's row and column deleted."""
    return kirchhoff_minor_determinant(graph, 0)


@dataclass(frozen=True)
class RefinementMap:
    """The vertex inclusion of a graph into its k-th homothetic refinement.

    Refinement keeps vertex names, so each source vertex embeds as the
    target vertex of the same name.  ``edge_chains`` holds, per expanded
    source edge (see :attr:`Multigraph.edge_list`), the ordered k inserted
    vertices subdividing that copy.
    """

    source: Multigraph
    target: Multigraph
    k: int
    edge_chains: tuple[tuple[str, ...], ...]


def refine(graph: Multigraph, k: int) -> tuple[Multigraph, RefinementMap]:
    """Insert k vertices in the interior of every edge.

    Inserted vertices are named ``u:v:c:i`` from the stored edge record
    ``(u, v)``, parallel-copy index c and position i (1-based, counted from
    u), which keeps refined graphs and golden files stable.  ``refine(G, 0)``
    returns an isomorphic copy with the identity map.  The genus is
    invariant under refinement.
    """
    check_int(k, "refinement index k", 0)
    if k:
        m = graph.num_edges
        check_graph_size(len(graph.vertices) + k * m, (k + 1) * m, f"refinement with k = {k}")
    new_vertices = list(graph.vertices)
    taken = set(new_vertices)
    new_edges: list[tuple[str, str, int]] = []
    chains: list[tuple[str, ...]] = []

    if k == 0:
        target = Multigraph(tuple(new_vertices), graph.edges)
        chains = [() for _ in graph.edge_list]
    else:
        for u, v, m in graph.edges:
            for c in range(m):
                chain = []
                for i in range(1, k + 1):
                    name = f"{u}{_REFINE_SEP}{v}{_REFINE_SEP}{c}{_REFINE_SEP}{i}"
                    if name in taken:
                        raise InvalidInputError(
                            f"inserted vertex name {name!r} collides with an existing vertex"
                        )
                    taken.add(name)
                    chain.append(name)
                new_vertices.extend(chain)
                path = [u, *chain, v]
                new_edges.extend((path[i], path[i + 1], 1) for i in range(k + 1))
                chains.append(tuple(chain))
        target = Multigraph(tuple(new_vertices), tuple(new_edges))

    iota = RefinementMap(
        source=graph,
        target=target,
        k=k,
        edge_chains=tuple(chains),
    )
    return target, iota
