"""Graph construction, genus, Laplacian, tree counting, refinement."""

import itertools
import random

import pytest

from divgraph import (
    DisconnectedError,
    Divisor,
    EmptyVertexSetError,
    IndexMismatchError,
    InvalidInputError,
    LoopEdgeError,
    Multigraph,
    UnknownVertexError,
    build_graph,
    genus,
    kirchhoff_minor_determinant,
    laplacian,
    refine,
    spanning_tree_count,
    transport,
)
from divgraph.families import banana, cycle, from_spec, random_multigraph, theta
from divgraph.graphs import MAX_GRAPH_SIZE
from divgraph.io import graph_from_doc, graph_to_doc

from conftest import CORPUS, refined_treewidth, spanning_trees_bruteforce, treewidth


class TestBuildGraph:
    def test_banana_valid(self):
        g = build_graph(["a", "b"], [("a", "b"), ("a", "b")])
        assert g.num_edges == 2
        assert g.multiplicity("a", "b") == 2

    def test_doubled_triangle_valid(self):
        g = build_graph(["a", "b", "c"], [("a", "b", 2), ("b", "c", 2), ("a", "c", 2)])
        assert len(g.vertices) == 3
        assert g.num_edges == 6

    def test_loop_edge_rejected(self):
        with pytest.raises(LoopEdgeError):
            build_graph(["a", "b"], [("a", "a")])

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            build_graph(["a", "b", "c"], [("a", "b")])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(UnknownVertexError):
            build_graph(["a", "b"], [("a", "z")])

    def test_empty_vertex_set_rejected(self):
        with pytest.raises(EmptyVertexSetError):
            build_graph([], [])

    def test_bad_multiplicity_rejected(self):
        with pytest.raises(InvalidInputError):
            build_graph(["a", "b"], [("a", "b", 0)])

    def test_single_vertex_edgeless_accepted(self):
        g = build_graph(["a"], [])
        assert genus(g) == 0

    def test_parallel_records_merge(self):
        g = build_graph(["a", "b"], [("a", "b"), ("b", "a", 2)])
        assert g.multiplicity("a", "b") == 3
        assert len(g.edges) == 1


def merged_by_frozenset(edges) -> tuple:
    """The edge records of a graph document, merged on the unordered name
    pair: each merged record keeps its first record's orientation and place."""
    merged = {}
    for spec in edges:
        u, v, m = spec if len(spec) == 3 else (*spec, 1)
        key = frozenset((u, v))
        a, b, prev = merged.get(key, (u, v, 0))
        merged[key] = (a, b, prev + m)
    return tuple(merged.values())


def random_document(seed: int) -> tuple[list, list]:
    """A connected graph document with shuffled names and records split
    into parallel pieces in both orientations, two- and three-element."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    names = [f"n{rng.randrange(10**6)}-{i}" for i in range(n)]
    rng.shuffle(names)
    pairs = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    pairs += [tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, 2 * n) if n > 1 else 0)]
    edges = []
    for u, v in pairs:
        for _ in range(rng.randint(1, 3)):
            a, b = (u, v) if rng.random() < 0.5 else (v, u)
            edges.append([a, b] if rng.random() < 0.5 else [a, b, rng.randint(1, 3)])
    rng.shuffle(edges)
    return names, edges


def _built_graphs():
    cases = [pytest.param(g, id=name) for name, g in CORPUS]
    specs = ["banana(0)", "cycle(2)", "cycle(9)", "theta(1,2,3)", "chain(5)", "random(7,12,4)"]
    cases += [pytest.param(from_spec(spec), id=spec) for spec in specs]
    cases += [
        pytest.param(graph_from_doc(graph_to_doc(refine(g, k)[0], name))[1], id=f"{name}^({k})")
        for name, g in CORPUS[::3]
        for k in (1, 3)
    ]
    return cases


class TestBuiltCaches:
    """build_graph hands each graph the ``index`` and ``adjacency`` it
    computed on the way; they equal what a raw Multigraph computes from its
    vertex names."""

    @staticmethod
    def assert_caches_match(graph):
        raw = Multigraph(graph.vertices, graph.edges)
        assert graph.index == raw.index
        assert graph.adjacency == raw.adjacency
        assert graph.degrees == raw.degrees
        assert graph.bfs_distances(0) == raw.bfs_distances(0)

    @pytest.mark.parametrize("graph", _built_graphs())
    def test_corpus_families_and_refinements(self, graph):
        self.assert_caches_match(graph)

    @pytest.mark.parametrize("seed", range(60))
    def test_random_documents_with_merged_records(self, seed):
        names, edges = random_document(seed)
        graph = build_graph(names, edges)
        assert graph.vertices == tuple(names)
        assert graph.edges == merged_by_frozenset(edges)
        self.assert_caches_match(graph)


class TestMultiplicity:
    def test_counts_parallel_edges_in_either_order(self):
        g = build_graph("abc", [("a", "b", 2), ("b", "c")])
        assert g.multiplicity("a", "b") == g.multiplicity("b", "a") == 2
        assert g.multiplicity("c", "b") == 1
        assert g.multiplicity("a", "c") == 0

    @pytest.mark.parametrize("u,v", [(0, 1), ("v0", 1), (["v0"], "v1")])
    def test_non_string_name_is_invalid_input(self, u, v):
        with pytest.raises(InvalidInputError):
            cycle(3).multiplicity(u, v)

    @pytest.mark.parametrize("u,v", [("v0", "zz"), ("zz", "v1")])
    def test_unknown_name(self, u, v):
        with pytest.raises(UnknownVertexError):
            cycle(3).multiplicity(u, v)

    def test_edge_index(self):
        g = build_graph("abc", [("a", "b", 2), ("b", "c")])
        assert [g.edge_index("b", "a", 1), g.edge_index("c", "b")] == [1, 2]
        with pytest.raises(UnknownVertexError, match="no edge"):
            g.edge_index("a", "c")
        for copy in (2, -1):
            with pytest.raises(InvalidInputError, match="no copy"):
                g.edge_index("a", "b", copy)


class TestGenus:
    @pytest.mark.parametrize("g", range(0, 6))
    def test_banana(self, g):
        assert genus(banana(g)) == g

    def test_doubled_triangle(self, theta222):
        assert genus(theta222) == 4

    def test_tree(self, path3):
        assert genus(path3) == 0

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cycle(self, n):
        assert genus(cycle(n)) == 1


class TestLaplacian:
    def test_banana2(self):
        assert laplacian(banana(1)) == [[2, -2], [-2, 2]]

    def test_doubled_triangle(self, theta222):
        assert laplacian(theta222) == [[4, -2, -2], [-2, 4, -2], [-2, -2, 4]]

    def test_path(self, path3):
        assert laplacian(path3) == [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]

    @pytest.mark.parametrize("name,graph", CORPUS)
    def test_rows_sum_zero_and_symmetric(self, name, graph):
        mat = laplacian(graph)
        for i, row in enumerate(mat):
            assert sum(row) == 0
            for j in range(len(row)):
                assert mat[i][j] == mat[j][i]


class TestSpanningTrees:
    @pytest.mark.parametrize("g", range(0, 6))
    def test_banana(self, g):
        assert spanning_tree_count(banana(g)) == g + 1

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cycle(self, n):
        assert spanning_tree_count(cycle(n)) == n

    def test_doubled_triangle(self, theta222):
        # 2x2 cofactor of the Laplacian: det [[4,-2],[-2,4]] = 12
        assert spanning_tree_count(theta222) == 12

    def test_single_vertex(self):
        assert spanning_tree_count(build_graph(["a"], [])) == 1

    @pytest.mark.parametrize("name,graph", CORPUS)
    def test_matches_bruteforce(self, name, graph):
        assert spanning_tree_count(graph) == spanning_trees_bruteforce(graph)

    @pytest.mark.parametrize("name,graph", CORPUS[:6])
    def test_cofactor_choice_irrelevant(self, name, graph):
        expected = spanning_tree_count(graph)
        for drop in range(len(graph.vertices)):
            assert kirchhoff_minor_determinant(graph, drop) == expected

    # a drop past the last vertex once kept the whole singular Laplacian
    # and returned 0
    @pytest.mark.parametrize("drop", [4, -1, True, 1.5])
    def test_drop_must_be_a_vertex_index(self, drop):
        with pytest.raises(InvalidInputError, match="drop"):
            kirchhoff_minor_determinant(cycle(4), drop)

    def test_isolated_first_vertex_has_no_spanning_tree(self):
        # the raw constructor does not check connectivity; each reduced
        # Laplacian is then singular, and a zero pivot ends the elimination,
        # at the first step or, with the isolated vertex further on, later
        edges = (("b", "c", 2), ("c", "d", 1), ("b", "d", 1))
        for vertices in (("a", "b", "c", "d"), ("b", "c", "a", "d"), ("b", "c", "d", "a")):
            graph = Multigraph(vertices, edges)
            assert spanning_trees_bruteforce(graph) == 0
            for drop in range(4):
                assert kirchhoff_minor_determinant(graph, drop) == 0

    @pytest.mark.parametrize(
        "graph",
        [
            build_graph(["c", "x", "y", "z"], [("c", "x"), ("c", "y"), ("c", "z")]),
            build_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]),
        ],
        ids=["star", "path"],
    )
    def test_tree_has_one_spanning_tree_at_every_drop(self, graph):
        # the star dropped at its centre leaves the identity: every row
        # takes the pivot == prev skip; the path dropped at d mixes full
        # updates with skips
        for drop in range(len(graph.vertices)):
            assert kirchhoff_minor_determinant(graph, drop) == 1


def _refinement_cases():
    bases = [(name, graph, (1, 2, 7)) for name, graph in CORPUS]
    bases += [
        (f"random({n},{m},{s})", random_multigraph(n, m, s), (15, 23))
        for n, m in ((5, 8), (6, 9))
        for s in (1, 2)
    ]
    return [
        pytest.param(graph, k, id=f"{name}^({k})") for name, graph, ks in bases for k in ks
    ]


class TestRefinementIdentity:
    """tau(G^(k)) = tau(G) (k + 1)^g, an oracle that computes no
    determinant: a spanning tree of G^(k) is a spanning tree T of G with
    each of the g edges outside T cut at one of its k + 1 segments."""

    @pytest.mark.parametrize("graph,k", _refinement_cases())
    def test_tree_count_of_refinement(self, graph, k):
        refined, _ = refine(graph, k)
        expected = spanning_trees_bruteforce(graph) * (k + 1) ** genus(graph)
        assert spanning_tree_count(refined) == expected
        n = len(refined.vertices)
        # the last row is the one the benchmark checks read
        for drop in (n // 2, n - 1):
            assert kirchhoff_minor_determinant(refined, drop) == expected


def complete(n):
    vertices = [f"v{i}" for i in range(n)]
    return build_graph(vertices, list(itertools.combinations(vertices, 2)))


def grid(rows, cols):
    vertices = [f"{i},{j}" for i in range(rows) for j in range(cols)]
    edges = [(f"{i},{j}", f"{i},{j + 1}") for i in range(rows) for j in range(cols - 1)]
    edges += [(f"{i},{j}", f"{i + 1},{j}") for i in range(rows - 1) for j in range(cols)]
    return build_graph(vertices, edges)


PETERSEN = build_graph(
    [f"v{i}" for i in range(10)],
    [(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)]
    + [(f"v{i}", f"v{i + 5}") for i in range(5)]
    + [(f"v{i + 5}", f"v{(i + 2) % 5 + 5}") for i in range(5)],
)


def _treewidth_rule_cases():
    bases = [*CORPUS, ("path3", build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")]))]
    bases += [("K4", complete(4))]
    return [
        pytest.param(graph, k, id=f"{name}^({k})")
        for name, graph in bases
        for k in (1, 2)
        if len(graph.vertices) + k * graph.num_edges <= 14
    ]


class TestTreewidthOracle:
    """The exact treewidth of the test oracles, and the rule for
    tw(G^(k)) that the witness floor reads."""

    @pytest.mark.parametrize(
        "graph,expected",
        [
            *(pytest.param(complete(n), n - 1, id=f"K{n}") for n in range(1, 8)),
            pytest.param(PETERSEN, 4, id="petersen"),
            pytest.param(grid(3, 3), 3, id="grid3x3"),
            pytest.param(grid(4, 3), 3, id="grid4x3"),
            pytest.param(cycle(6), 2, id="cycle6"),
            pytest.param(banana(3), 1, id="banana3"),
            pytest.param(
                build_graph(["c", "x", "y", "z"], [("c", "x"), ("c", "y"), ("c", "z")]), 1, id="star"
            ),
        ],
    )
    def test_known_values(self, graph, expected):
        assert treewidth(graph) == expected

    @pytest.mark.parametrize("graph,k", _treewidth_rule_cases())
    def test_refinement_rule_matches_dp(self, graph, k):
        assert refined_treewidth(graph, k) == treewidth(refine(graph, k)[0])


class TestRefine:
    def test_banana_to_cycle(self):
        target, iota = refine(banana(1), 1)
        assert len(target.vertices) == 4
        assert target.num_edges == 4
        assert genus(target) == 1
        assert iota.k == 1

    def test_identity_refinement(self, theta222):
        target, iota = refine(theta222, 0)
        assert target is theta222
        assert iota.source is iota.target is theta222
        assert all(chain == () for chain in iota.edge_chains)

    def test_doubled_triangle_k2_counts(self, theta222):
        target, _ = refine(theta222, 2)
        assert len(target.vertices) == 3 + 2 * 6 == 15
        assert target.num_edges == 3 * 6 == 18
        assert genus(target) == 4

    @pytest.mark.parametrize("name,graph", CORPUS)
    @pytest.mark.parametrize("k", range(0, 6))
    def test_genus_invariance_and_counts(self, name, graph, k):
        target, _ = refine(graph, k)
        assert genus(target) == genus(graph)
        assert len(target.vertices) == len(graph.vertices) + k * graph.num_edges
        assert target.num_edges == (k + 1) * graph.num_edges

    def test_chain_lengths(self, theta222):
        _, iota = refine(theta222, 3)
        assert len(iota.edge_chains) == theta222.num_edges
        assert all(len(chain) == 3 for chain in iota.edge_chains)

    @pytest.mark.parametrize("k", [-1, True, 1.5])
    def test_index_must_be_a_non_negative_integer(self, k):
        with pytest.raises(InvalidInputError, match="refinement index k"):
            refine(banana(1), k)

    @pytest.mark.parametrize("k", [10**9, MAX_GRAPH_SIZE // 2])
    def test_oversized_refinement_fails_before_building(self, k):
        # banana(1) refined k times has 2 + 2k vertices and 2k + 2 edges
        with pytest.raises(InvalidInputError, match="limit"):
            refine(banana(1), k)

    def test_inserted_name_colliding_with_a_vertex_rejected(self):
        graph = build_graph(["a", "b", "a:b:0:1"], [("a", "b"), ("b", "a:b:0:1")])
        with pytest.raises(InvalidInputError, match="collides"):
            refine(graph, 1)

    def test_inserted_names_deterministic(self):
        t1, _ = refine(banana(1), 2)
        t2, _ = refine(banana(1), 2)
        assert t1.vertices == t2.vertices
        assert t1.edges == t2.edges


class TestChainDecomposition:
    def test_hanging_cycle_and_chain(self):
        # a triangle a-b-c, a cycle a-x-y-a hanging off a, and the chain
        # b-z-w-c parallel to the edge bc
        graph = build_graph(
            "abcxyzw",
            [("a", "b"), ("b", "c"), ("c", "a"), ("a", "x"), ("x", "y"), ("y", "a"),
             ("b", "z"), ("z", "w"), ("w", "c")],
        )
        bits, links, chains, anchors, rank_set = graph.chain_decomposition(0)
        assert anchors == (0, 1, 2)
        assert chains == 2
        # the closed chain x-y gets a key bit but no anchor-graph link
        assert bits[3] == bits[4] != bits[5] == bits[6] != 0
        assert sorted(links[0]) == [(1, 1, 0), (2, 1, 0)]
        # a chain's link carries its key bit
        assert sorted(links[1]) == [(0, 1, 0), (2, 1, 0), (2, 1, bits[5])]
        # A adds x, the lowest vertex of the closed chain, to the anchors
        assert rank_set == (0, 1, 2, 3)

    def test_root_is_an_anchor_and_the_result_is_cached(self):
        graph, _ = refine(banana(2), 1)
        chain_vertex = graph.index["v0:v1:0:1"]
        assert graph.degrees[chain_vertex] == 2
        assert chain_vertex not in graph.chain_decomposition(0).anchors
        assert chain_vertex in graph.chain_decomposition(chain_vertex).anchors
        assert graph.chain_decomposition(0) is graph.chain_decomposition(0)


class TestTransport:
    def test_identity(self, theta222):
        _, iota = refine(theta222, 0)
        d = Divisor(theta222, (1, -2, 3))
        assert transport(iota, d) == d

    def test_banana_to_cycle(self):
        graph = banana(1)
        target, iota = refine(graph, 1)
        moved = transport(iota, Divisor(graph, (1, 1)))
        assert moved.to_map() == {"v0": 1, "v1": 1}
        assert moved.degree == 2
        # inserted vertices carry zero
        assert all(moved.at(v) == 0 for v in target.vertices[2:])

    def test_zero_divisor(self, theta222):
        _, iota = refine(theta222, 2)
        assert transport(iota, Divisor.zero(theta222)) == Divisor.zero(iota.target)

    def test_wrong_graph_rejected(self, theta222):
        _, iota = refine(theta222, 1)
        with pytest.raises(IndexMismatchError):
            transport(iota, Divisor.zero(banana(1)))

    @pytest.mark.parametrize("name,graph", CORPUS[:8])
    def test_degree_preserved_and_injective(self, name, graph):
        _, iota = refine(graph, 2)
        import itertools

        seen = {}
        for coeffs in itertools.product((-1, 0, 2), repeat=len(graph.vertices)):
            moved = transport(iota, Divisor(graph, coeffs))
            assert moved.degree == sum(coeffs)
            assert moved.coeffs not in seen
            seen[moved.coeffs] = coeffs
