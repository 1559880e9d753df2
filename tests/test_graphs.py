"""Graph construction, genus, Laplacian, tree counting, refinement."""

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
from divgraph.families import banana, cycle, random_multigraph, theta
from divgraph.graphs import MAX_GRAPH_SIZE

from conftest import CORPUS, spanning_trees_bruteforce


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


class TestRefine:
    def test_banana_to_cycle(self):
        target, iota = refine(banana(1), 1)
        assert len(target.vertices) == 4
        assert target.num_edges == 4
        assert genus(target) == 1
        assert iota.k == 1

    def test_identity_refinement(self, theta222):
        target, iota = refine(theta222, 0)
        assert target == theta222
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
