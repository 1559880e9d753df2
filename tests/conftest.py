"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own algorithms: spanning
trees are counted by enumerating edge subsets, linear equivalence is decided
by solving the reduced Laplacian system over exact rationals (effectivity
by scanning the effective divisors of the same degree for one in the class),
and q-reducedness is tested by scanning all vertex subsets for a fireable set.
Treewidth, exact by a dynamic program over vertex subsets, gives a floor
under every witness's degree that no rank check enters.  Harmonicity is
judged by vertex names over the expanded edge lists, with no vertex index.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from divgraph import (
    Divisor,
    GraphMorphism,
    Multigraph,
    build_graph,
    enumerate_classes,
    genus,
    has_effective_rep,
    is_reduced,
    laplacian,
)
from divgraph.families import banana, chain_of_loops, cycle, random_multigraph, theta

RANDOM_SEEDS = (101, 202, 303)


def corpus() -> list[tuple[str, Multigraph]]:
    """The standing test corpus: bananas g<=5, cycles n<=6, the doubled
    triangle, chains of loops g<=3 and three seeded random graphs."""
    items: list[tuple[str, Multigraph]] = []
    for g in range(1, 6):
        items.append((f"banana({g})", banana(g)))
    for n in range(3, 7):
        items.append((f"cycle({n})", cycle(n)))
    items.append(("theta(2,2,2)", theta(2, 2, 2)))
    for g in range(1, 4):
        items.append((f"chain({g})", chain_of_loops(g)))
    for seed in RANDOM_SEEDS:
        items.append((f"random(4,6,{seed})", random_multigraph(4, 6, seed)))
    return items


CORPUS = corpus()


@pytest.fixture(scope="session")
def theta222() -> Multigraph:
    return theta(2, 2, 2)


@pytest.fixture(scope="session")
def path3() -> Multigraph:
    return build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])


def spanning_trees_bruteforce(graph: Multigraph) -> int:
    """Count spanning trees by testing every (|V|-1)-subset of the expanded
    edge list for acyclicity via union-find."""
    edge_list = graph.edge_list
    n = len(graph.vertices)
    count = 0
    for combo in itertools.combinations(range(len(edge_list)), n - 1):
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for e in combo:
            u, v = edge_list[e]
            ru, rv = find(graph.index[u]), find(graph.index[v])
            if ru == rv:
                break
            parent[ru] = rv
        else:
            count += 1
    return count


def is_principal_oracle(graph: Multigraph, coeffs) -> bool:
    """Whether a coefficient vector is a principal divisor, decided by exact
    rational solution of the reduced Laplacian system plus an integrality
    check.  Independent of the chip-firing reduction code."""
    if sum(coeffs) != 0:
        return False
    n = len(graph.vertices)
    if n == 1:
        return True
    lap = laplacian(graph)
    a = [[Fraction(lap[i][j]) for j in range(1, n)] for i in range(1, n)]
    b = [Fraction(coeffs[i]) for i in range(1, n)]
    size = n - 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col] != 0), None)
        assert pivot is not None, "reduced Laplacian is nonsingular for connected graphs"
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        for row in range(size):
            if row != col and a[row][col] != 0:
                factor = a[row][col] / a[col][col]
                for c in range(col, size):
                    a[row][c] -= factor * a[col][c]
                b[row] -= factor * b[col]
    return all((b[i] / a[i][i]).denominator == 1 for i in range(size))


def effective_oracle(graph: Multigraph, coeffs) -> bool:
    """Whether a coefficient vector is linearly equivalent to an effective
    divisor: some effective E of the same degree has D - E principal, as
    decided by :func:`is_principal_oracle`.  No chip-firing involved."""
    degree = sum(coeffs)
    if degree < 0:
        return False
    n = len(graph.vertices)
    for combo in itertools.combinations_with_replacement(range(n), degree):
        diff = list(coeffs)
        for i in combo:
            diff[i] -= 1
        if is_principal_oracle(graph, diff):
            return True
    return False


def equivalent_oracle(graph: Multigraph, d1: Divisor, d2: Divisor) -> bool:
    return is_principal_oracle(graph, [x - y for x, y in zip(d1.coeffs, d2.coeffs)])


def definitional_rank(graph: Multigraph, d: Divisor, top=None) -> int:
    """The largest r such that D - E is equivalent to an effective divisor
    for every effective E of degree r, with no Riemann-Roch shortcut; at
    most ``top`` when given."""
    n = len(graph.vertices)
    r = -1
    while (top is None or r < top) and all(
        has_effective_rep(graph, d - Divisor(graph, tuple(map(combo.count, range(n)))))
        for combo in itertools.combinations_with_replacement(range(n), r + 1)
    ):
        r += 1
    return r


def reduce_round_by_round(
    graph: Multigraph, coeffs: list[int], q: int, until_effective: bool = False
) -> list[int]:
    """q-reduction with one Dhar burn per firing round, the reference for
    the threshold burns of ``_reduce_coeffs``: the same phase 1 (firing
    distance sublevel sets, outermost layer first), then, until every
    vertex burns, a burn from q and one firing of the unburnt set, as
    often as its members stay non-negative.  Mutates and returns
    ``coeffs``; with ``until_effective`` it stops once ``coeffs[q] >= 0``.
    Its rounds grow with the size of the coefficients, so keep them
    moderate on anything but small graphs."""
    n = len(graph.vertices)
    adjacency = graph.adjacency
    dist = graph.bfs_distances(q)
    for layer in range(max(dist), 0, -1):
        members = [v for v in range(n) if dist[v] == layer]
        rounds = 0
        for v in members:
            if coeffs[v] < 0:
                gain = sum(m for w, m in adjacency[v] if dist[w] < layer)
                rounds = max(rounds, -(coeffs[v] // gain))
        for v in members:
            for w, m in adjacency[v]:
                if dist[w] < layer:
                    coeffs[v] += rounds * m
                    coeffs[w] -= rounds * m
    while not (until_effective and coeffs[q] >= 0):
        burnt = [False] * n
        burnt[q] = True
        heat = [0] * n
        queue = [q]
        while queue:
            v = queue.pop()
            for w, m in adjacency[v]:
                if not burnt[w]:
                    heat[w] += m
                    if heat[w] > coeffs[w]:
                        burnt[w] = True
                        queue.append(w)
        unburnt = [v for v in range(n) if not burnt[v]]
        if not unburnt:
            break
        outdeg = {v: sum(m for w, m in adjacency[v] if burnt[w]) for v in unburnt}
        rounds = min(coeffs[v] // outdeg[v] for v in unburnt if outdeg[v])
        for v in unburnt:
            coeffs[v] -= rounds * outdeg[v]
            for w, m in adjacency[v]:
                if burnt[w]:
                    coeffs[w] += rounds * m
    return coeffs


def is_reduced_by_subsets(graph: Multigraph, coeffs, qi: int) -> bool:
    """Direct definition of q-reduced: non-negative off q and no nonempty
    subset avoiding q can fire without going negative."""
    n = len(graph.vertices)
    if any(coeffs[i] < 0 for i in range(n) if i != qi):
        return False
    others = [i for i in range(n) if i != qi]
    for size in range(1, len(others) + 1):
        for subset in itertools.combinations(others, size):
            inside = set(subset)
            if all(
                coeffs[v] >= sum(m for w, m in graph.adjacency[v] if w not in inside)
                for v in subset
            ):
                return False
    return True


def superstable_by_subsets(graph: Multigraph, qi: int) -> list[tuple[int, ...]]:
    """All superstable configurations found by raw box scan + subset test."""
    n = len(graph.vertices)
    others = [i for i in range(n) if i != qi]
    found = []
    for combo in itertools.product(*[range(graph.degrees[v]) for v in others]):
        coeffs = [0] * n
        for v, c in zip(others, combo):
            coeffs[v] = c
        if is_reduced_by_subsets(graph, coeffs, qi):
            found.append(tuple(coeffs))
    return found


def screened_walk(graph: Multigraph, q: str, d: int, r: int) -> list[tuple]:
    """What ``enumerate_classes(graph, q, d, r)`` yields, filtered from the
    walk without a threshold: the classes with D(q) >= r that are not also
    v-reduced at an anchor v of ``chain_decomposition(q)`` with D(v) < r,
    each at its position, then the end item."""
    qi = graph.vertex_index(q)
    anchors = graph.chain_decomposition(qi).anchors
    full = list(enumerate_classes(graph, q, d))
    kept = [
        (i, coeffs)
        for i, coeffs in enumerate(full)
        if coeffs[qi] >= r
        and not any(
            coeffs[v] < r and is_reduced(graph, Divisor(graph, coeffs), graph.vertices[v])
            for v in anchors
        )
    ]
    return kept + [(len(full), None)]


def cut_walk(items: list[tuple], limit: int) -> list[tuple]:
    """The items of a threshold walk, end item last, as the walk with
    ``limit`` yields them: no position at or above ``limit``, then
    ``(limit + 1, None)`` if a class lies there."""
    *kept, (total, _) = items
    return [(i, coeffs) for i, coeffs in kept if i < limit] + [(min(total, limit + 1), None)]


def _members(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def treewidth(graph: Multigraph) -> int:
    """Exact treewidth of the graph's simple graph, at most 14 vertices.

    The O*(2^n) elimination-order dynamic program (Bodlaender, Fomin,
    Koster, Kratsch and Thilikos, "On exact algorithms for treewidth", ACM
    TALG 2012): TW(S), the best width of an order that eliminates S first,
    is the least over v in S of max(TW(S - v), |Q(S - v, v)|), where
    Q(S, v) holds the vertices outside S + v that v reaches through S, and
    the treewidth is TW(V).  Multiplicities play no part.
    """
    n = len(graph.vertices)
    assert n <= 14, "the subset dynamic program is exponential in the vertex count"
    nbrs = [0] * n
    for v, adj in enumerate(graph.adjacency):
        for w, _ in adj:
            nbrs[v] |= 1 << w

    def q_size(s: int, v: int) -> int:
        reach = frontier = 1 << v
        border = 0
        while frontier:
            step = 0
            for u in _members(frontier):
                step |= nbrs[u]
            border |= step
            frontier = step & s & ~reach
            reach |= frontier
        return bin(border & ~s & ~(1 << v)).count("1")

    tw = [-1] * (1 << n)
    for s in range(1, 1 << n):
        tw[s] = min(max(tw[s ^ (1 << v)], q_size(s ^ (1 << v), v)) for v in _members(s))
    return tw[-1]


def refined_treewidth(graph: Multigraph, k: int) -> int:
    """tw(G^(k)) from tw(G): max(tw(G), 2) for k >= 1 and g >= 1, else
    tw(G).  G's simple graph is a minor of G^(k), subdividing an edge
    never raises a treewidth of 2 or more, and for g >= 1 the subdivided
    parallel edges or cycles of G^(k) hold a cycle, so tw(G^(k)) >= 2.  A
    tree stays a tree."""
    tw = treewidth(graph)
    return max(tw, 2) if k and genus(graph) else tw


def assert_treewidth_floor(graph: Multigraph, k: int, d: int, r: int) -> None:
    """Assert d - r + 1 >= tw(G^(k)) for a witness of degree d and rank at
    least r >= 1 on G^(k); a rank-0 witness bounds nothing.

    Taking any effective E of degree r - 1 off the witness leaves rank at
    least r - (r - 1) = 1, so the divisorial gonality of G^(k) is at most
    d - r + 1, and gonality is at least treewidth (van Dobben de Bruyn and
    Gijswijt, "Treewidth is a lower bound on graph gonality", Algebraic
    Combinatorics 2020).  No rank check takes part, so a check that passes
    a class of too low a degree fails here."""
    if r >= 1:
        floor = refined_treewidth(graph, k)
        assert d - r + 1 >= floor, f"degree {d}, rank {r} on a graph of treewidth {floor}"


def shuffled(graph: Multigraph, seed: int) -> Multigraph:
    """The same graph with its vertex order permuted."""
    vertices = list(graph.vertices)
    random.Random(seed).shuffle(vertices)
    return build_graph(vertices, graph.edges)


def harmonic_violations_oracle(f: GraphMorphism) -> tuple[dict, ...]:
    """The violations :func:`check_harmonic` should report, found by vertex
    names over ``edge_list``: per source vertex v in vertex order, every
    target edge at f(v), in target edge order, that the edges at v hit
    other than m(v) times; then, when the fiber sums of m differ, every
    target vertex with its sum.  A target edge is named by its endpoints
    and its copy: the number of earlier entries of ``edge_list`` with the
    same endpoints."""
    src, tgt = f.source, f.target
    image = {v: tgt.vertices[w] for v, w in zip(src.vertices, f.vertex_map)}
    local = dict(zip(src.vertices, f.local_degree))
    named = []
    copies = Counter()
    for u, v in tgt.edge_list:
        named.append((u, v, copies[frozenset((u, v))]))
        copies[frozenset((u, v))] += 1
    violations = []
    for v in src.vertices:
        hits = Counter(
            named[te] for (a, b), te in zip(src.edge_list, f.edge_map) if v in (a, b)
        )
        for edge in named:
            if image[v] in edge[:2] and hits[edge] != local[v]:
                violations.append(
                    {
                        "kind": "local",
                        "vertex": v,
                        "target_edge": list(edge),
                        "count": hits[edge],
                        "expected": local[v],
                    }
                )
    sums = {w: 0 for w in tgt.vertices}
    for v in src.vertices:
        sums[image[v]] += local[v]
    if len(set(sums.values())) > 1:
        violations.extend(
            {"kind": "degree", "target_vertex": w, "fiber_sum": s} for w, s in sums.items()
        )
    return tuple(violations)
