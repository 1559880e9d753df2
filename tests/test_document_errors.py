"""Error parity for malformed graph, morphism and divisor documents.

Each case builds one document through the library's own entry points
(``build_graph``, ``build_morphism``, ``Divisor.from_map``) and is pinned to
the outcome it has always had: the error class, slug and message, or for a
document that is valid, the object it builds.  ``build_graph`` resolves
an endpoint through its own index first and falls back to the type check
and membership test only on a miss; a morphism or divisor name goes
through ``Multigraph.vertex_index``, which takes the same exact-``str`` hit
and checks only a miss; a two-element edge reference takes its own record
probe before ``Multigraph.edge_index``.  These pins check that every miss
still raises the same error, in the same order.
"""

from __future__ import annotations

import pytest

from divgraph import Divisor, DivGraphError, GraphMorphism, Multigraph, build_graph, build_morphism


class Name(str):
    """A ``str`` subclass: a valid vertex name that is never an exact ``str``."""


GRAPH_VERTICES = ["a", "b", "c"]
GRAPH_EDGES = [["a", "b"], ["b", "c", 2]]

# the alternating double cover of C4 onto the doubled edge x-y
SOURCE = build_graph(["a", "b", "c", "d"], [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]])
TARGET = build_graph(["x", "y"], [["x", "y", 2]])
VERTEX_MAP = {"a": "x", "b": "y", "c": "x", "d": "y"}
EDGE_MAP = [
    [["a", "b"], ["x", "y", 0]],
    [["b", "c"], ["x", "y", 1]],
    [["c", "d"], ["x", "y", 0]],
    [["d", "a"], ["x", "y", 1]],
]


def graph(vertices=GRAPH_VERTICES, edges=GRAPH_EDGES):
    return lambda: build_graph(vertices, edges)


def morphism(vertex_map=VERTEX_MAP, edge_map=EDGE_MAP, local_degree=None, marked_legs=None):
    return lambda: build_morphism(SOURCE, TARGET, vertex_map, edge_map, local_degree, marked_legs)


def divisor(values):
    return lambda: Divisor.from_map(build_graph(GRAPH_VERTICES, GRAPH_EDGES), values)


def edge_map_with(position, entry):
    """EDGE_MAP with one entry replaced."""
    entries = list(EDGE_MAP)
    entries[position] = entry
    return entries


CASES = {
    # graphs: vertex names
    "graph-valid": graph(),
    "graph-int-name": graph(["a", 1], []),
    "graph-unhashable-name": graph(["a", ["b"]], []),
    "graph-int-name-after-duplicate": graph(["a", "a", 1], []),
    "graph-subclass-names": graph([Name("a"), "b", Name("c")], [["a", Name("b")], [Name("b"), "c", 2]]),
    "graph-duplicate-names": graph(["a", "b", "a"], [["a", "b"]]),
    "graph-duplicate-subclass-name": graph(["a", Name("a")], []),
    "graph-no-vertices": graph([], []),
    # graphs: endpoints
    "graph-unknown-then-int-endpoint": graph(edges=[["zz", 1]]),
    "graph-int-then-unknown-endpoint": graph(edges=[[1, "zz"]]),
    "graph-unknown-endpoints": graph(edges=[["zz", "yy"]]),
    "graph-known-then-unknown-endpoint": graph(edges=[["a", "zz"]]),
    "graph-unhashable-endpoint": graph(edges=[["a", ["b"]]]),
    "graph-subclass-unknown-endpoint": graph(edges=[[Name("zz"), "a"]]),
    "graph-unknown-endpoint-before-multiplicity": graph(edges=[["a", "zz", 0]]),
    "graph-loop": graph(edges=[["a", "b"], ["c", "c"]]),
    "graph-subclass-loop": graph(edges=[[Name("a"), "a"]]),
    # graphs: records
    "graph-true-multiplicity": graph(edges=[["a", "b", True], ["b", "c"]]),
    "graph-zero-multiplicity": graph(edges=[["a", "b", 0], ["b", "c"]]),
    "graph-float-multiplicity": graph(edges=[["a", "b", 1.0], ["b", "c"]]),
    "graph-one-element-spec": graph(edges=[["a"]]),
    "graph-four-element-spec": graph(edges=[["a", "b", 1, 1]]),
    "graph-string-spec": graph(edges=["ab"]),
    "graph-tuple-specs": graph(("a", "b", "c"), (("a", "b"), ("b", "c", 2))),
    "graph-merged-records": graph(edges=[["b", "a"], ["b", "c"], ["a", "b", 2], ["c", "b"]]),
    "graph-disconnected": graph(edges=[["a", "b"]]),
    # morphisms: vertex map
    "morphism-valid": morphism(),
    "morphism-vertex-map-not-object": morphism(vertex_map=[]),
    "morphism-unknown-key": morphism(vertex_map={**VERTEX_MAP, "zz": "x"}),
    "morphism-unknown-image": morphism(vertex_map={**VERTEX_MAP, "a": "zz"}),
    "morphism-unknown-key-and-image": morphism(vertex_map={"zz": "qq"}),
    "morphism-int-image": morphism(vertex_map={**VERTEX_MAP, "a": 1}),
    "morphism-unhashable-image": morphism(vertex_map={**VERTEX_MAP, "a": ["x"]}),
    "morphism-int-key": morphism(vertex_map={**VERTEX_MAP, 1: "x"}),
    "morphism-subclass-names": morphism(vertex_map={Name(v): Name(w) for v, w in VERTEX_MAP.items()}),
    "morphism-uncovered-vertex": morphism(vertex_map={"a": "x", "b": "y", "c": "x"}),
    # morphisms: edge references
    "morphism-edge-map-not-array": morphism(edge_map={}),
    "morphism-entry-not-pair": morphism(edge_map=[[["a", "b"]]]),
    "morphism-reference-not-list": morphism(edge_map=edge_map_with(0, ["ab", ["x", "y"]])),
    "morphism-one-element-reference": morphism(edge_map=edge_map_with(0, [["a"], ["x", "y"]])),
    "morphism-int-endpoint": morphism(edge_map=edge_map_with(0, [["a", 1], ["x", "y"]])),
    "morphism-unknown-endpoint": morphism(edge_map=edge_map_with(0, [["a", "zz"], ["x", "y"]])),
    "morphism-unknown-then-int-endpoint": morphism(edge_map=edge_map_with(0, [["zz", 1], ["x", "y"]])),
    "morphism-unhashable-endpoint": morphism(edge_map=edge_map_with(0, [["a", ["b"]], ["x", "y"]])),
    "morphism-subclass-unknown-endpoint": morphism(edge_map=edge_map_with(0, [[Name("zz"), "b"], ["x", "y"]])),
    "morphism-absent-edge": morphism(edge_map=edge_map_with(0, [["a", "c"], ["x", "y"]])),
    "morphism-unknown-target-endpoint": morphism(edge_map=edge_map_with(0, [["a", "b"], ["x", "zz"]])),
    "morphism-reversed-references": morphism(
        edge_map=[[[u, v][::-1], [x, y, c][1::-1] + [c]] for (u, v), (x, y, c) in EDGE_MAP]
    ),
    "morphism-tuple-references": morphism(
        edge_map=tuple((tuple(s), tuple(t)) for s, t in EDGE_MAP)
    ),
    "morphism-subclass-references": morphism(
        edge_map=[[[Name(u), v], [x, Name(y), c]] for (u, v), (x, y, c) in EDGE_MAP]
    ),
    "morphism-three-element-source-references": morphism(
        edge_map=[[s + [0], t] for s, t in EDGE_MAP]
    ),
    "morphism-two-element-target-references": morphism(
        edge_map=[[s, t[:2]] for s, t in EDGE_MAP]
    ),
    "morphism-copy-past-multiplicity": morphism(edge_map=edge_map_with(0, [["a", "b", 1], ["x", "y"]])),
    "morphism-negative-copy": morphism(edge_map=edge_map_with(0, [["a", "b"], ["x", "y", -1]])),
    "morphism-true-copy": morphism(edge_map=edge_map_with(0, [["a", "b"], ["x", "y", True]])),
    "morphism-true-copy-unknown-endpoints": morphism(edge_map=edge_map_with(0, [["zz", "qq", True], ["x", "y"]])),
    "morphism-bad-copy-unknown-endpoints": morphism(edge_map=edge_map_with(0, [["zz", "qq", 5], ["x", "y"]])),
    "morphism-reversed-copy-past-multiplicity": morphism(
        edge_map=edge_map_with(1, [["b", "c"], ["y", "x", 2]])
    ),
    # morphisms: coverage and endpoints
    "morphism-repeated-source-edge": morphism(edge_map=EDGE_MAP + [EDGE_MAP[0]]),
    "morphism-repeated-reversed-source-edge": morphism(edge_map=EDGE_MAP + [[["b", "a"], ["x", "y", 0]]]),
    "morphism-repeated-before-bad-target": morphism(edge_map=EDGE_MAP + [[["a", "b"], ["x", "zz"]]]),
    "morphism-missing-source-edge": morphism(edge_map=EDGE_MAP[:3]),
    "morphism-missing-source-edges": morphism(edge_map=EDGE_MAP[1:3]),
    "morphism-endpoint-mismatch": morphism(vertex_map={"a": "x", "b": "x", "c": "x", "d": "y"}),
    "morphism-first-mismatch-in-edge-order": morphism(
        vertex_map={"a": "x", "b": "y", "c": "y", "d": "x"}, edge_map=EDGE_MAP[::-1]
    ),
    "morphism-mismatch-reversed-references": morphism(
        vertex_map={"a": "y", "b": "y", "c": "x", "d": "y"},
        edge_map=[[[v, u], [y, x, c]] for (u, v), (x, y, c) in EDGE_MAP],
    ),
    "morphism-mismatch-two-element-reversed-references": morphism(
        vertex_map={"a": "x", "b": "y", "c": "y", "d": "x"},
        edge_map=[[[v, u], [y, x]] for (u, v), (x, y, _) in EDGE_MAP],
    ),
    "morphism-missing-before-mismatch": morphism(
        vertex_map={"a": "x", "b": "x", "c": "x", "d": "y"}, edge_map=EDGE_MAP[1:]
    ),
    # morphisms: local degrees and legs
    "morphism-local-degree": morphism(local_degree={"a": 2, "c": 1}),
    "morphism-local-degree-not-object": morphism(local_degree=[]),
    "morphism-zero-local-degree": morphism(local_degree={"a": 0}),
    "morphism-true-local-degree": morphism(local_degree={"a": True}),
    "morphism-unknown-local-degree-key": morphism(local_degree={"zz": 1}),
    "morphism-negative-marked-legs": morphism(marked_legs={"a": -1}),
    "morphism-marked-legs": morphism(marked_legs={"b": 1, "d": 0}),
    # divisors
    "divisor-valid": divisor({"a": 2, "c": -1}),
    "divisor-unknown-vertex": divisor({"a": 1, "zz": 1}),
    "divisor-int-vertex": divisor({1: 1}),
    "divisor-value-before-name": divisor({"zz": 1.5}),
    "divisor-true-value": divisor({"a": True}),
    "divisor-subclass-vertex": divisor({Name("b"): 3}),
}


def outcome(build) -> tuple:
    """What building a document gives: its error's class, slug and
    message, or "ok" and the fields of what it built."""
    try:
        built = build()
    except DivGraphError as exc:
        return (type(exc).__name__, exc.slug, str(exc))
    if isinstance(built, Multigraph):
        return ("ok", built.vertices, built.edges)
    if isinstance(built, GraphMorphism):
        return ("ok", built.vertex_map, built.edge_map, built.local_degree, built.marked_legs)
    assert isinstance(built, Divisor)
    return ("ok", built.coeffs)


# pinned from the outcomes before names resolved through the index
EXPECTED = {
    "graph-valid": ('ok', ('a', 'b', 'c'), (('a', 'b', 1), ('b', 'c', 2))),
    "graph-int-name": ('InvalidInputError', 'invalid-input', 'vertex name must be a JSON string, got 1'),
    "graph-unhashable-name": ('InvalidInputError', 'invalid-input', "vertex name must be a JSON string, got ['b']"),
    "graph-int-name-after-duplicate": ('InvalidInputError', 'invalid-input', 'vertex name must be a JSON string, got 1'),
    "graph-subclass-names": ('ok', ('a', 'b', 'c'), (('a', 'b', 1), ('b', 'c', 2))),
    "graph-duplicate-names": ('InvalidInputError', 'invalid-input', 'duplicate vertex names'),
    "graph-duplicate-subclass-name": ('InvalidInputError', 'invalid-input', 'duplicate vertex names'),
    "graph-no-vertices": ('EmptyVertexSetError', 'empty-vertex-set', 'a graph needs at least one vertex'),
    "graph-unknown-then-int-endpoint": ('InvalidInputError', 'invalid-input', 'edge endpoint must be a JSON string, got 1'),
    "graph-int-then-unknown-endpoint": ('InvalidInputError', 'invalid-input', 'edge endpoint must be a JSON string, got 1'),
    "graph-unknown-endpoints": ('UnknownVertexError', 'unknown-vertex', "edge endpoint 'zz' is not a declared vertex"),
    "graph-known-then-unknown-endpoint": ('UnknownVertexError', 'unknown-vertex', "edge endpoint 'zz' is not a declared vertex"),
    "graph-unhashable-endpoint": ('InvalidInputError', 'invalid-input', "edge endpoint must be a JSON string, got ['b']"),
    "graph-subclass-unknown-endpoint": ('UnknownVertexError', 'unknown-vertex', "edge endpoint 'zz' is not a declared vertex"),
    "graph-unknown-endpoint-before-multiplicity": ('UnknownVertexError', 'unknown-vertex', "edge endpoint 'zz' is not a declared vertex"),
    "graph-loop": ('LoopEdgeError', 'loop-edge', "loop edge at 'c'"),
    "graph-subclass-loop": ('LoopEdgeError', 'loop-edge', "loop edge at 'a'"),
    "graph-true-multiplicity": ('InvalidInputError', 'invalid-input', 'edge (a,b) multiplicity must be an integer >= 1, got True'),
    "graph-zero-multiplicity": ('InvalidInputError', 'invalid-input', 'edge (a,b) multiplicity must be an integer >= 1, got 0'),
    "graph-float-multiplicity": ('InvalidInputError', 'invalid-input', 'edge (a,b) multiplicity must be an integer >= 1, got 1.0'),
    "graph-one-element-spec": ('InvalidInputError', 'invalid-input', "edge spec ['a'] is not (u, v[, mult])"),
    "graph-four-element-spec": ('InvalidInputError', 'invalid-input', "edge spec ['a', 'b', 1, 1] is not (u, v[, mult])"),
    "graph-string-spec": ('InvalidInputError', 'invalid-input', "edge spec 'ab' is not (u, v[, mult])"),
    "graph-tuple-specs": ('ok', ('a', 'b', 'c'), (('a', 'b', 1), ('b', 'c', 2))),
    "graph-merged-records": ('ok', ('a', 'b', 'c'), (('b', 'a', 3), ('b', 'c', 2))),
    "graph-disconnected": ('DisconnectedError', 'disconnected', "vertices unreachable from 'a': ['c']"),
    "morphism-valid": ('ok', (0, 1, 0, 1), (0, 1, 0, 1), (1, 1, 1, 1), ()),
    "morphism-vertex-map-not-object": ('InvalidInputError', 'invalid-input', 'vertex_map must be a JSON object, got []'),
    "morphism-unknown-key": ('UnknownVertexError', 'unknown-vertex', "unknown vertex_map key 'zz'"),
    "morphism-unknown-image": ('UnknownVertexError', 'unknown-vertex', "unknown vertex_map image 'zz'"),
    "morphism-unknown-key-and-image": ('UnknownVertexError', 'unknown-vertex', "unknown vertex_map image 'qq'"),
    "morphism-int-image": ('InvalidInputError', 'invalid-input', 'vertex_map image must be a JSON string, got 1'),
    "morphism-unhashable-image": ('InvalidInputError', 'invalid-input', "vertex_map image must be a JSON string, got ['x']"),
    "morphism-int-key": ('InvalidInputError', 'invalid-input', 'vertex_map key must be a JSON string, got 1'),
    "morphism-subclass-names": ('ok', (0, 1, 0, 1), (0, 1, 0, 1), (1, 1, 1, 1), ()),
    "morphism-uncovered-vertex": ('UnknownVertexError', 'unknown-vertex', "vertex_map does not cover source vertex 'd'"),
    "morphism-edge-map-not-array": ('InvalidInputError', 'invalid-input', 'edge_map must be a JSON array, got {}'),
    "morphism-entry-not-pair": ('InvalidInputError', 'invalid-input', "edge_map entry [['a', 'b']] is not [source_edge, target_edge]"),
    "morphism-reference-not-list": ('InvalidInputError', 'invalid-input', "edge reference 'ab' is not (u, v[, copy])"),
    "morphism-one-element-reference": ('InvalidInputError', 'invalid-input', "edge reference ['a'] is not (u, v[, copy])"),
    "morphism-int-endpoint": ('InvalidInputError', 'invalid-input', 'edge endpoint must be a JSON string, got 1'),
    "morphism-unknown-endpoint": ('UnknownVertexError', 'unknown-vertex', "unknown edge endpoint 'zz'"),
    "morphism-unknown-then-int-endpoint": ('UnknownVertexError', 'unknown-vertex', "unknown edge endpoint 'zz'"),
    "morphism-unhashable-endpoint": ('InvalidInputError', 'invalid-input', "edge endpoint must be a JSON string, got ['b']"),
    "morphism-subclass-unknown-endpoint": ('UnknownVertexError', 'unknown-vertex', "unknown edge endpoint 'zz'"),
    "morphism-absent-edge": ('UnknownVertexError', 'unknown-vertex', "no edge between 'a' and 'c'"),
    "morphism-unknown-target-endpoint": ('UnknownVertexError', 'unknown-vertex', "unknown edge endpoint 'zz'"),
    "morphism-reversed-references": ('ok', (0, 1, 0, 1), (0, 1, 0, 1), (1, 1, 1, 1), ()),
    "morphism-tuple-references": ('ok', (0, 1, 0, 1), (0, 1, 0, 1), (1, 1, 1, 1), ()),
    "morphism-subclass-references": ('ok', (0, 1, 0, 1), (0, 1, 0, 1), (1, 1, 1, 1), ()),
    "morphism-three-element-source-references": ('ok', (0, 1, 0, 1), (0, 1, 0, 1), (1, 1, 1, 1), ()),
    "morphism-two-element-target-references": ('ok', (0, 1, 0, 1), (0, 0, 0, 0), (1, 1, 1, 1), ()),
    "morphism-copy-past-multiplicity": ('InvalidInputError', 'invalid-input', 'edge (a,b) has multiplicity 1, no copy 1'),
    "morphism-negative-copy": ('InvalidInputError', 'invalid-input', 'edge (x,y) has multiplicity 2, no copy -1'),
    "morphism-true-copy": ('InvalidInputError', 'invalid-input', 'edge copy index must be an integer, got True'),
    "morphism-true-copy-unknown-endpoints": ('InvalidInputError', 'invalid-input', 'edge copy index must be an integer, got True'),
    "morphism-bad-copy-unknown-endpoints": ('UnknownVertexError', 'unknown-vertex', "unknown edge endpoint 'zz'"),
    "morphism-reversed-copy-past-multiplicity": ('InvalidInputError', 'invalid-input', 'edge (y,x) has multiplicity 2, no copy 2'),
    "morphism-repeated-source-edge": ('InvalidInputError', 'invalid-input', "source edge ['a', 'b'] mapped twice"),
    "morphism-repeated-reversed-source-edge": ('InvalidInputError', 'invalid-input', "source edge ['b', 'a'] mapped twice"),
    "morphism-repeated-before-bad-target": ('InvalidInputError', 'invalid-input', "source edge ['a', 'b'] mapped twice"),
    "morphism-missing-source-edge": ('InvalidInputError', 'invalid-input', "edge_map does not cover source edges [('d', 'a')]"),
    "morphism-missing-source-edges": ('InvalidInputError', 'invalid-input', "edge_map does not cover source edges [('a', 'b'), ('d', 'a')]"),
    "morphism-endpoint-mismatch": ('EndpointMismatchError', 'endpoint-mismatch', "edge (a,b) maps to (x,y) but its endpoints map to ['x']"),
    "morphism-first-mismatch-in-edge-order": ('EndpointMismatchError', 'endpoint-mismatch', "edge (b,c) maps to (x,y) but its endpoints map to ['y']"),
    "morphism-mismatch-reversed-references": ('EndpointMismatchError', 'endpoint-mismatch', "edge (a,b) maps to (x,y) but its endpoints map to ['y']"),
    "morphism-mismatch-two-element-reversed-references": ('EndpointMismatchError', 'endpoint-mismatch', "edge (b,c) maps to (x,y) but its endpoints map to ['y']"),
    "morphism-missing-before-mismatch": ('InvalidInputError', 'invalid-input', "edge_map does not cover source edges [('a', 'b')]"),
    "morphism-local-degree": ('ok', (0, 1, 0, 1), (0, 1, 0, 1), (2, 1, 1, 1), ()),
    "morphism-local-degree-not-object": ('InvalidInputError', 'invalid-input', 'local_degree must be a JSON object, got []'),
    "morphism-zero-local-degree": ('InvalidInputError', 'invalid-input', "local degree at 'a' must be an integer >= 1, got 0"),
    "morphism-true-local-degree": ('InvalidInputError', 'invalid-input', "local degree at 'a' must be an integer >= 1, got True"),
    "morphism-unknown-local-degree-key": ('UnknownVertexError', 'unknown-vertex', "unknown local_degree key 'zz'"),
    "morphism-negative-marked-legs": ('InvalidInputError', 'invalid-input', "marked leg count at 'a' must be an integer >= 0, got -1"),
    "morphism-marked-legs": ('ok', (0, 1, 0, 1), (0, 1, 0, 1), (1, 1, 1, 1), (0, 1, 0, 0)),
    "divisor-valid": ('ok', (2, 0, -1)),
    "divisor-unknown-vertex": ('UnknownVertexError', 'unknown-vertex', "unknown divisor vertex 'zz'"),
    "divisor-int-vertex": ('InvalidInputError', 'invalid-input', 'divisor vertex must be a JSON string, got 1'),
    "divisor-value-before-name": ('InvalidInputError', 'invalid-input', "divisor coefficient for 'zz' must be an integer, got 1.5"),
    "divisor-true-value": ('InvalidInputError', 'invalid-input', "divisor coefficient for 'a' must be an integer, got True"),
    "divisor-subclass-vertex": ('ok', (0, 3, 0)),
}


@pytest.mark.parametrize("case", CASES)
def test_error_parity(case):
    assert outcome(CASES[case]) == EXPECTED[case]


def test_every_case_is_pinned():
    assert set(CASES) == set(EXPECTED)
