"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own algorithms: spanning
trees are counted by enumerating edge subsets, linear equivalence is decided
by solving the reduced Laplacian system over exact rationals (effectivity
by scanning the effective divisors of the same degree for one in the class),
and q-reducedness is tested by scanning all vertex subsets for a fireable set.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from divgraph import Divisor, Multigraph, build_graph, enumerate_classes, is_reduced, laplacian
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


def shuffled(graph: Multigraph, seed: int) -> Multigraph:
    """The same graph with its vertex order permuted."""
    vertices = list(graph.vertices)
    random.Random(seed).shuffle(vertices)
    return build_graph(vertices, graph.edges)
