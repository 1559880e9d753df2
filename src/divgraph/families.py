"""Built-in graph families and the family-spec mini language.

Specs like ``banana(3)``, ``cycle(6)``, ``theta(2,2,2)``, ``chain(4)`` and
``random(5,8,7)`` name graphs deterministically; the CLI accepts them
anywhere a graph file is accepted.
"""

from __future__ import annotations

import random as _random
import re

from .errors import InvalidInputError
from .graphs import Multigraph, build_graph, check_graph_size


def banana(g: int) -> Multigraph:
    """Two vertices joined by g+1 parallel edges; genus g."""
    if g < 0:
        raise InvalidInputError("banana(g) needs g >= 0")
    check_graph_size(2, g + 1, f"banana({g})")
    return build_graph(["v0", "v1"], [("v0", "v1", g + 1)])


def cycle(n: int) -> Multigraph:
    """The n-cycle; n = 2 degenerates to a doubled edge.  Genus 1."""
    if n < 2:
        raise InvalidInputError("cycle(n) needs n >= 2")
    check_graph_size(n, n, f"cycle({n})")
    verts = [f"v{i}" for i in range(n)]
    if n == 2:
        return build_graph(verts, [("v0", "v1", 2)])
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    return build_graph(verts, edges)


def theta(n1: int, n2: int, n3: int) -> Multigraph:
    """Triangle on three vertices with n1, n2, n3 parallel edges per side.
    theta(2,2,2) is the doubled triangle of genus 4."""
    if min(n1, n2, n3) < 1:
        raise InvalidInputError("theta sides need multiplicity >= 1")
    check_graph_size(3, n1 + n2 + n3, f"theta({n1},{n2},{n3})")
    return build_graph(
        ["v0", "v1", "v2"],
        [("v0", "v1", n1), ("v1", "v2", n2), ("v0", "v2", n3)],
    )


def chain_of_loops(g: int) -> Multigraph:
    """g doubled edges in a chain; genus g."""
    if g < 1:
        raise InvalidInputError("chain_of_loops(g) needs g >= 1")
    check_graph_size(g + 1, 2 * g, f"chain({g})")
    verts = [f"v{i}" for i in range(g + 1)]
    edges = [(verts[i], verts[i + 1], 2) for i in range(g)]
    return build_graph(verts, edges)


def random_multigraph(n: int, m: int, seed: int) -> Multigraph:
    """Deterministic pseudo-random connected loopless multigraph with n
    vertices and m edges: a random recursive tree plus m-(n-1) uniformly
    chosen extra edges (parallel edges allowed)."""
    if n < 1:
        raise InvalidInputError("random(n,m,seed) needs n >= 1")
    if m < n - 1:
        raise InvalidInputError(f"random(n,m,seed) needs m >= n-1 = {n - 1} for connectivity")
    if n == 1 and m > 0:
        raise InvalidInputError("a single-vertex graph admits no loopless edges")
    check_graph_size(n, m, f"random({n},{m},{seed})")
    rng = _random.Random(seed)
    verts = [f"v{i}" for i in range(n)]
    edges: list[tuple[str, str]] = []
    for i in range(1, n):
        edges.append((verts[rng.randrange(i)], verts[i]))
    for _ in range(m - (n - 1)):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        edges.append((verts[i], verts[j]))
    return build_graph(verts, edges)


_FAMILY_RE = re.compile(r"^\s*([a-z-]+)\s*\(\s*([-0-9,\s]*)\s*\)\s*$")

_BUILDERS = {
    "banana": (banana, 1),
    "cycle": (cycle, 1),
    "theta": (theta, 3),
    "chain": (chain_of_loops, 1),
    "chain-of-loops": (chain_of_loops, 1),
    "random": (random_multigraph, 3),
}


def is_family_spec(spec: str) -> bool:
    match = _FAMILY_RE.match(spec)
    return bool(match) and match.group(1) in _BUILDERS


def _parse_spec(spec: str) -> tuple[str, list[int]]:
    """The family name and integer arguments of a spec string."""
    match = _FAMILY_RE.match(spec)
    if not match or match.group(1) not in _BUILDERS:
        raise InvalidInputError(f"unknown graph family spec {spec!r}")
    _, arity = _BUILDERS[match.group(1)]
    raw = [p.strip() for p in match.group(2).split(",") if p.strip()]
    if len(raw) != arity:
        raise InvalidInputError(f"family {match.group(1)!r} takes {arity} argument(s)")
    try:
        args = [int(p) for p in raw]
    except ValueError:
        raise InvalidInputError(f"non-integer argument in family spec {spec!r}")
    return match.group(1), args


def from_spec(spec: str) -> Multigraph:
    """Build a graph from a family spec string such as ``theta(2,2,2)``."""
    name, args = _parse_spec(spec)
    return _BUILDERS[name][0](*args)


def canonical_spec(spec: str) -> str:
    """The one spelling ``name(int,...)`` of a family spec: no spaces, no
    leading zeros, and ``chain-of-loops`` spelled ``chain``, so
    ``banana( 01)`` gives ``banana(1)``."""
    name, args = _parse_spec(spec)
    name = "chain" if name == "chain-of-loops" else name
    return f"{name}({','.join(map(str, args))})"
