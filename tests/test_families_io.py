"""Graph families, spec parsing and file round-trips."""

import json

import pytest

from divgraph import Divisor, InvalidInputError, UnknownVertexError, genus
from divgraph.families import (
    banana,
    chain_of_loops,
    cycle,
    from_spec,
    is_family_spec,
    random_multigraph,
    theta,
)
from divgraph.graphs import MAX_GRAPH_SIZE
from divgraph.io import (
    divisor_to_doc,
    graph_to_doc,
    load_divisor,
    load_graph,
    load_morphism,
    resolve_graph,
)


class TestFamilies:
    @pytest.mark.parametrize("g", range(0, 6))
    def test_banana_genus(self, g):
        assert genus(banana(g)) == g

    def test_cycle_degenerate(self):
        assert cycle(2).multiplicity("v0", "v1") == 2
        with pytest.raises(InvalidInputError):
            cycle(1)

    def test_theta_counts(self):
        g = theta(1, 2, 3)
        assert g.num_edges == 6
        assert genus(g) == 4

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_chain_of_loops_genus(self, g):
        graph = chain_of_loops(g)
        assert genus(graph) == g
        assert len(graph.vertices) == g + 1

    def test_random_deterministic(self):
        assert random_multigraph(5, 8, 7) == random_multigraph(5, 8, 7)
        assert random_multigraph(5, 8, 7) != random_multigraph(5, 8, 8)

    def test_random_connected_and_sized(self):
        for seed in range(10):
            g = random_multigraph(6, 9, seed)
            assert len(g.vertices) == 6
            assert g.num_edges == 9
            assert genus(g) == 4

    def test_random_needs_enough_edges(self):
        with pytest.raises(InvalidInputError):
            random_multigraph(5, 3, 0)


class TestFamilySpecs:
    @pytest.mark.parametrize(
        "spec,vertices,edges",
        [
            ("banana(3)", 2, 4),
            ("cycle(5)", 5, 5),
            ("theta(2,2,2)", 3, 6),
            ("chain(2)", 3, 4),
            ("chain-of-loops(2)", 3, 4),
            ("random(4,6,1)", 4, 6),
        ],
    )
    def test_parse(self, spec, vertices, edges):
        assert is_family_spec(spec)
        g = from_spec(spec)
        assert len(g.vertices) == vertices
        assert g.num_edges == edges

    @pytest.mark.parametrize(
        "bad",
        [
            "banana", "petersen(1)", "banana(1,2)", "banana(x)", "banana(-1)", "theta(0,1,1)",
            "chain(0)", "random(0,0,1)", "random(1,1,1)", "cycle(1-2)",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(InvalidInputError):
            from_spec(bad)

    @pytest.mark.parametrize(
        "spec",
        [
            "banana(100000000)", "cycle(100000000)", "theta(1,1,100000000)",
            "chain(100000000)", "random(3,100000000,1)", "random(100000000,100000000,1)",
        ],
    )
    def test_oversized_spec_fails_before_building(self, spec):
        with pytest.raises(InvalidInputError, match="limit"):
            from_spec(spec)

    def test_size_limit_is_inclusive(self):
        assert from_spec(f"banana({MAX_GRAPH_SIZE - 1})").num_edges == MAX_GRAPH_SIZE
        with pytest.raises(InvalidInputError, match="limit"):
            from_spec(f"banana({MAX_GRAPH_SIZE})")


class TestGraphFiles:
    def test_round_trip(self, tmp_path):
        doc = {
            "name": "theta4",
            "vertices": ["a", "b", "c"],
            "edges": [["a", "b", 2], ["b", "c", 2], ["a", "c", 2]],
        }
        path = tmp_path / "g.graph"
        path.write_text(json.dumps(doc), encoding="utf-8")
        name, graph = load_graph(path)
        assert name == "theta4"
        assert genus(graph) == 4
        assert graph_to_doc(graph, name) == doc

    def test_multiplicity_defaults_to_one(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text(
            json.dumps({"name": "p", "vertices": ["a", "b"], "edges": [["a", "b"]]}),
            encoding="utf-8",
        )
        _, graph = load_graph(path)
        assert graph.num_edges == 1

    def test_resolve_prefers_file_then_family(self, tmp_path):
        path = tmp_path / "banana(1)"
        path.write_text(
            json.dumps({"name": "file-won", "vertices": ["z"], "edges": []}),
            encoding="utf-8",
        )
        name, _ = resolve_graph(str(path))
        assert name == "file-won"
        name, graph = resolve_graph("banana(1)")
        assert name == "banana(1)" and genus(graph) == 1

    def test_resolve_rejects_unknown(self):
        with pytest.raises(InvalidInputError):
            resolve_graph("no-such-thing")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InvalidInputError):
            load_graph(path)


class TestDivisorFiles:
    def test_load_with_omitted_zeros(self, tmp_path):
        graph = theta(2, 2, 2)
        path = tmp_path / "d.div"
        path.write_text(json.dumps({"v1": 3, "v2": -1}), encoding="utf-8")
        div = load_divisor(path, graph)
        assert div.coeffs == (0, 3, -1)
        assert divisor_to_doc(div) == {"v1": 3, "v2": -1}

    def test_unknown_vertex_rejected(self, tmp_path):
        path = tmp_path / "d.div"
        path.write_text(json.dumps({"zz": 1}), encoding="utf-8")
        with pytest.raises(UnknownVertexError):
            load_divisor(path, theta(2, 2, 2))

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "d.div"
        path.write_text(json.dumps({"v0": 1.5}), encoding="utf-8")
        with pytest.raises(InvalidInputError):
            load_divisor(path, theta(2, 2, 2))


class TestMorphismFiles:
    def test_load_inline_graphs(self, tmp_path):
        doc = {
            "source": {
                "name": "P3",
                "vertices": ["a", "b", "c"],
                "edges": [["a", "b"], ["b", "c"]],
            },
            "target": {"name": "E", "vertices": ["x", "y"], "edges": [["x", "y"]]},
            "vertex_map": {"a": "x", "b": "y", "c": "x"},
            "edge_map": [[["a", "b"], ["x", "y"]], [["b", "c"], ["x", "y"]]],
            "local_degree": {"b": 2},
        }
        path = tmp_path / "m.morphism"
        path.write_text(json.dumps(doc), encoding="utf-8")
        f = load_morphism(path)
        assert f.report.harmonic and f.report.degree == 2

    def test_graph_reference_by_path_and_family(self, tmp_path):
        gdoc = {"name": "E", "vertices": ["x", "y"], "edges": [["x", "y", 2]]}
        (tmp_path / "target.graph").write_text(json.dumps(gdoc), encoding="utf-8")
        doc = {
            "source": "cycle(4)",
            "target": "target.graph",
            "vertex_map": {"v0": "x", "v1": "y", "v2": "x", "v3": "y"},
            "edge_map": [
                [["v0", "v1"], ["x", "y", 0]],
                [["v1", "v2"], ["x", "y", 1]],
                [["v2", "v3"], ["x", "y", 0]],
                [["v3", "v0"], ["x", "y", 1]],
            ],
        }
        path = tmp_path / "m.morphism"
        path.write_text(json.dumps(doc), encoding="utf-8")
        f = load_morphism(path)
        assert f.report.harmonic and f.report.degree == 2

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "m.morphism"
        path.write_text(json.dumps({"source": "banana(1)"}), encoding="utf-8")
        with pytest.raises(InvalidInputError):
            load_morphism(path)
