"""CLI surface: reports, exit codes, byte stability."""

import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

import divgraph.brill_noether
import divgraph.cli
from divgraph import Divisor, canonical, genus, vertex_divisor
from divgraph.cli import main
from divgraph.families import from_spec

from conftest import definitional_rank

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_runs_on_the_standard_library_alone():
    # -S skips site-packages and -E ignores PYTHONPATH, so a third-party
    # import anywhere under divgraph.cli fails here; -B writes no bytecode
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from divgraph.cli import main; "
        "sys.exit(main(['rho', '--g', '4', '--d', '3', '--r', '1']))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-E", "-B", "-c", script, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rho"] == 0


class TestNumerology:
    def test_rho(self, capsys):
        code, report = run_json(capsys, "rho", "--g", "4", "--d", "3", "--r", "1")
        assert code == 0
        assert report["rho"] == 0

    def test_rho_negative(self, capsys):
        code, report = run_json(capsys, "rho", "--g", "9", "--d", "5", "--r", "1")
        assert code == 0
        assert report["rho"] == -1

    def test_bound(self, capsys):
        code, report = run_json(capsys, "bound", "--g", "4", "--d", "3", "--r", "1")
        assert code == 0
        assert report["theorem_bound"] == 2
        assert report["k_range"] == [0, 1]

    def test_bound_shortcut(self, capsys):
        code, report = run_json(capsys, "bound", "--g", "0", "--d", "2", "--r", "1")
        assert code == 0
        assert report["theorem_bound"] == "rr-shortcut"

    def test_bound_legacy(self, capsys):
        code, report = run_json(
            capsys, "bound-legacy", "--n", "2", "--m", "5", "--d", "3", "--r", "1"
        )
        assert code == 0
        import math

        assert report["legacy_bound"] == math.factorial(11) * 3**11

    def test_bound_compare(self, capsys):
        code, report = run_json(capsys, "bound-compare", "--g", "4", "--d", "3", "--r", "1")
        assert code == 0
        assert report["theorem_bound"] == 2
        assert report["chain_ok"] is True
        assert report["legacy_bound"] == math.factorial(11) * 3**11
        assert report["theorem_bound"] < report["legacy_bound"]

    def test_bound_compare_degree_zero_has_no_legacy_value(self, capsys):
        code, report = run_json(capsys, "bound-compare", "--g", "3", "--d", "0", "--r", "0")
        assert code == 0
        assert report["theorem_bound"] == 1
        assert report["legacy_bound"] is None

    def test_bound_computes_no_legacy_bound(self, capsys, monkeypatch):
        argv = ("bound", "--g", "4", "--d", "3", "--r", "1")
        expected = run(capsys, *argv)

        def refuse(*args):
            raise AssertionError("bound computed the legacy bound")

        monkeypatch.setattr(divgraph.cli, "legacy_bound", refuse)
        monkeypatch.setattr(divgraph.brill_noether, "legacy_bound", refuse)
        assert run(capsys, *argv) == expected
        assert expected[0] == 0

    def test_bound_compare_computes_the_legacy_bound_once(self, capsys, monkeypatch):
        calls = []
        original = divgraph.brill_noether.legacy_bound

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(divgraph.cli, "legacy_bound", counting)
        monkeypatch.setattr(divgraph.brill_noether, "legacy_bound", counting)
        code, report = run_json(capsys, "bound-compare", "--g", "4", "--d", "3", "--r", "1")
        assert code == 0
        assert report["chain_ok"] is True
        assert calls == [(2, 5, 3, 1)]

    def test_bound_compare_precondition_note(self, capsys):
        code, report = run_json(capsys, "bound-compare", "--g", "3", "--d", "2", "--r", "0")
        assert code == 0
        assert report["chain_ok"] is None


class TestGraphCommands:
    def test_genus_trees_on_fixture(self, capsys):
        code, report = run_json(capsys, "genus", "--graph", str(FIXTURES / "theta4.graph"))
        assert code == 0 and report["genus"] == 4 and report["graph"] == "theta4"
        code, report = run_json(capsys, "trees", "--graph", str(FIXTURES / "theta4.graph"))
        assert code == 0 and report["spanning_trees"] == 12

    def test_laplacian_family(self, capsys):
        code, report = run_json(capsys, "laplacian", "--graph", "banana(1)")
        assert code == 0
        assert report["laplacian"] == [[2, -2], [-2, 2]]

    def test_refine_with_divisor(self, capsys, tmp_path):
        div = tmp_path / "d.div"
        div.write_text(json.dumps({"v0": 1, "v1": 1}), encoding="utf-8")
        code, report = run_json(
            capsys, "refine", "--graph", "banana(1)", "--k", "1", "--divisor", str(div)
        )
        assert code == 0
        assert len(report["refined"]["vertices"]) == 4
        assert report["genus"] == 1
        assert report["divisor"] == {"v0": 1, "v1": 1}

    def test_reduce_and_rank(self, capsys, tmp_path):
        div = tmp_path / "d.div"
        div.write_text(json.dumps({"b": 2}), encoding="utf-8")
        graph = str(FIXTURES / "theta4.graph")
        code, report = run_json(
            capsys, "reduce", "--graph", graph, "--divisor", str(div), "--q", "a"
        )
        assert code == 0
        assert report["effective_class"] is True
        code, report = run_json(capsys, "rank", "--graph", graph, "--divisor", str(div))
        assert code == 0 and report["rank"] == 0

    def test_reduce_at_an_empty_vertex_name(self, capsys, tmp_path):
        # "" is a vertex name like any other, not the default base vertex
        graph, div = tmp_path / "ab.graph", tmp_path / "d.div"
        graph.write_text(
            json.dumps({"name": "ab", "vertices": ["a", ""], "edges": [["a", ""]]}),
            encoding="utf-8",
        )
        div.write_text(json.dumps({"a": 1}), encoding="utf-8")
        argv = ["reduce", "--graph", str(graph), "--divisor", str(div)]
        code, report = run_json(capsys, *argv, "--q", "")
        assert code == 0
        assert (report["q"], report["reduced"]) == ("", {"": 1})
        code, report = run_json(capsys, *argv)
        assert code == 0
        assert (report["q"], report["reduced"]) == ("a", {"a": 1})

    def test_rr_verify(self, capsys, tmp_path):
        div = tmp_path / "d.div"
        div.write_text(json.dumps({"a": -1, "c": 2}), encoding="utf-8")
        code, report = run_json(
            capsys, "rr-verify", "--graph", str(FIXTURES / "theta4.graph"), "--divisor", str(div)
        )
        assert code == 0
        assert report["residual"] == 0 and report["ok"] is True

    @pytest.mark.parametrize("spec", ["theta(2,2,2)", "random(4,6,101)"])
    def test_rr_verify_ranks_match_the_definition(self, capsys, tmp_path, spec):
        # rank_canonical_minus is read off rank by Riemann-Roch; both are
        # checked against the definitional rank of D and of K - D, at every
        # degree from -1 to 2g, on d*(v0) and on a spread divisor
        graph = from_spec(spec)
        g = genus(graph)
        k = canonical(graph)
        rng = random.Random(17)
        div = tmp_path / "d.div"
        for degree in range(-1, 2 * g + 1):
            spread = [rng.randint(-1, 2) for _ in graph.vertices]
            spread[-1] += degree - sum(spread)
            for d in (vertex_divisor(graph, "v0", degree), Divisor(graph, tuple(spread))):
                div.write_text(json.dumps(d.to_map()), encoding="utf-8")
                code, report = run_json(capsys, "rr-verify", "--graph", spec, "--divisor", str(div))
                assert code == 0
                assert report["degree"] == degree and report["genus"] == g
                assert report["rank"] == definitional_rank(graph, d), d
                assert report["rank_canonical_minus"] == definitional_rank(graph, k - d), d
                assert report["residual"] == 0 and report["ok"] is True

    # the rest of a valid command line for each subcommand taking --graph;
    # parsing fails before any file is read
    GRAPH_COMMANDS = {
        "genus": (),
        "laplacian": (),
        "trees": (),
        "refine": ("--k", "1"),
        "reduce": ("--divisor", "d.div"),
        "rank": ("--divisor", "d.div"),
        "rr-verify": ("--divisor", "d.div"),
        "search": ("--d", "2", "--r", "1"),
        "gonality": ("--d-max", "2"),
        "pushforward": ("--divisor", "d.div", "--contract", "[]"),
    }

    @pytest.mark.parametrize("command,rest", GRAPH_COMMANDS.items(), ids=GRAPH_COMMANDS.keys())
    def test_seed_flag_is_a_usage_error(self, capsys, command, rest):
        # a random graph is written random(n,m,seed); no flag supplies the seed
        code = main([command, "--graph", "random(5,8)", *rest, "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 1
        assert "unrecognized arguments: --seed 7" in captured.err
        assert captured.out == ""


class TestSearchCommand:
    def test_found_on_doubled_triangle(self, capsys):
        code, report = run_json(
            capsys, "search", "--graph", str(FIXTURES / "theta4.graph"), "--d", "3", "--r", "1"
        )
        assert code == 0
        assert report["found"] is True and report["k"] == 0
        assert report["verified"] is True
        assert report["theorem_bound"] == 2

    def test_negative_rho_exit_two(self, capsys):
        code, report = run_json(
            capsys, "search", "--graph", "banana(9)", "--d", "5", "--r", "1"
        )
        assert code == 2
        assert report["error"] == "negative-rho"

    def test_truncated_search_exit_three(self, capsys):
        code, report = run_json(
            capsys,
            "search", "--graph", "banana(2)", "--d", "2", "--r", "1",
            "--max-classes", "1",
        )
        assert code == 3
        assert report["found"] is False and report["limit_hit"] == "max-classes"

    def test_gonality(self, capsys):
        code, report = run_json(
            capsys, "gonality", "--graph", "cycle(5)", "--r", "1", "--d-max", "3"
        )
        assert code == 0 and report["gonality"] == 2


class TestHarmonicCommands:
    def test_harmonic_check(self, capsys):
        code, report = run_json(
            capsys, "harmonic-check", "--morphism", str(FIXTURES / "path_onto_edge.morphism")
        )
        assert code == 0
        assert report["harmonic"] is True and report["degree"] == 2

    def test_rh_check(self, capsys):
        code, report = run_json(
            capsys, "rh-check", "--morphism", str(FIXTURES / "c4_double_cover.morphism")
        )
        assert code == 0
        assert report["lhs"] == report["rhs"] == 0 and report["balanced"] is True

    def test_pullback(self, capsys, tmp_path):
        div = tmp_path / "d.div"
        div.write_text(json.dumps({"y": 1}), encoding="utf-8")
        code, report = run_json(
            capsys,
            "pullback", "--morphism", str(FIXTURES / "path_onto_edge.morphism"),
            "--divisor", str(div),
        )
        assert code == 0
        assert report["pullback"] == {"b": 2}
        assert report["degree_out"] == report["map_degree"] * report["degree_in"]

    def test_pushforward_inline_pairs(self, capsys, tmp_path):
        gdoc = {
            "name": "C4r",
            "vertices": ["v0", "v1", "m0", "m1"],
            "edges": [["v0", "m0"], ["m0", "v1"], ["v0", "m1"], ["m1", "v1"]],
        }
        graph = tmp_path / "c4.graph"
        graph.write_text(json.dumps(gdoc), encoding="utf-8")
        div = tmp_path / "d.div"
        div.write_text(json.dumps({"v0": 1, "m1": 1}), encoding="utf-8")
        code, report = run_json(
            capsys,
            "pushforward", "--graph", str(graph), "--divisor", str(div),
            "--contract", '[["v0","m0"],["v1","m1"]]',
        )
        assert code == 0
        assert report["pushforward"] == {"v0": 1, "v1": 1}
        assert report["target"]["vertices"] == ["v0", "v1"]


class TestVertexNamesAreStrings:
    """A vertex name or graph reference given as a JSON number is invalid
    input, even where its decimal string names a vertex or a file."""

    DIGITS = {"name": "P3", "vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]]}

    def morphism(self, tmp_path, edge_ref, graph_ref=None):
        doc = {
            "source": graph_ref or self.DIGITS,
            "target": graph_ref or self.DIGITS,
            "vertex_map": {"1": "1", "2": "2", "3": "3"},
            "edge_map": [[edge_ref, ["1", "2"]], [["2", "3"], ["2", "3"]]],
        }
        path = tmp_path / "f.morphism"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("edge_ref,code", [(["1", "2"], 0), ([1, 2], 2)])
    def test_edge_reference(self, capsys, tmp_path, edge_ref, code):
        path = self.morphism(tmp_path, edge_ref)
        got, report = run_json(capsys, "harmonic-check", "--morphism", path)
        assert got == code
        assert report.get("error", "invalid-input") == "invalid-input"

    @pytest.mark.parametrize("pairs,code", [('[["1", "2"]]', 0), ("[[1, 2]]", 2)])
    def test_contraction_pair(self, capsys, tmp_path, pairs, code):
        graph, div = tmp_path / "p3.graph", tmp_path / "d.div"
        graph.write_text(json.dumps(self.DIGITS), encoding="utf-8")
        div.write_text(json.dumps({"1": 1}), encoding="utf-8")
        got, report = run_json(
            capsys, "pushforward", "--graph", str(graph), "--divisor", str(div),
            "--contract", pairs,
        )
        assert got == code
        assert report.get("error", "invalid-input") == "invalid-input"

    @pytest.mark.parametrize("graph_ref,code", [("5", 0), (5, 2)])
    def test_morphism_graph_reference(self, capsys, tmp_path, graph_ref, code):
        # a graph file named 5 next to the morphism file
        (tmp_path / "5").write_text(json.dumps(self.DIGITS), encoding="utf-8")
        path = self.morphism(tmp_path, ["1", "2"], graph_ref)
        got, report = run_json(capsys, "harmonic-check", "--morphism", path)
        assert got == code
        assert report.get("error", "invalid-input") == "invalid-input"


class TestExitCodesAndStability:
    def test_usage_error_is_one(self, capsys):
        assert main(["no-such-command"]) == 1
        assert main([]) == 1

    def test_invalid_input_is_two(self, capsys):
        code, report = run_json(capsys, "genus", "--graph", "missing.graph")
        assert code == 2
        assert "error" in report

    @pytest.mark.parametrize(
        "argv",
        [
            ("genus", "--graph", "cycle(100000000)"),
            ("genus", "--graph", "random(3,100000000,1)"),
            ("refine", "--graph", "banana(2)", "--k", "1000000000"),
        ],
    )
    def test_oversized_graph_fails_fast(self, capsys, argv):
        code, report = run_json(capsys, *argv)
        assert code == 2
        assert report["error"] == "invalid-input" and "limit" in report["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("rho", "--g", "-1", "--d", "2", "--r", "1"),
            ("bound", "--g", "2", "--d", "-1", "--r", "0"),
            ("bound-compare", "--g", "2", "--d", "2", "--r", "-1"),
            ("search", "--graph", "banana(2)", "--d", "-1", "--r", "0"),
            ("search", "--graph", "banana(2)", "--d", "2", "--r", "-1"),
            ("gonality", "--graph", "banana(2)", "--r", "0", "--d-max", "3"),
            ("refine", "--graph", "banana(2)", "--k", "-1"),
            ("search", "--graph", "banana(2)", "--d", "2", "--r", "1", "--k-max", "-1"),
            ("search", "--graph", "banana(2)", "--d", "2", "--r", "1", "--max-classes", "-1"),
            ("gonality", "--graph", "banana(2)", "--d-max", "-3"),
            ("bound-legacy", "--n", "3", "--m", "-1", "--d", "1", "--r", "100000000"),
        ],
    )
    def test_out_of_range_argument_is_invalid_input(self, capsys, argv):
        code, report = run_json(capsys, *argv)
        assert code == 2
        assert report["error"] == "invalid-input"

    @pytest.mark.parametrize(
        "graph_doc,divisor_doc",
        [
            ({"name": "p", "vertices": ["a", "b"], "edges": [["a", "b", True]]}, {}),
            ({"name": "p", "vertices": ["a", "b"], "edges": [["a", "b", 2]]}, {"a": True}),
        ],
    )
    def test_json_boolean_is_not_an_integer(self, capsys, tmp_path, graph_doc, divisor_doc):
        graph, divisor = tmp_path / "p.graph", tmp_path / "d.div"
        graph.write_text(json.dumps(graph_doc), encoding="utf-8")
        divisor.write_text(json.dumps(divisor_doc), encoding="utf-8")
        code, report = run_json(
            capsys, "refine", "--graph", str(graph), "--k", "1", "--divisor", str(divisor)
        )
        assert code == 2
        assert report["error"] == "invalid-input"

    @pytest.mark.parametrize(
        "patch",
        [
            {"local_degree": {"b": True}},
            {"local_degree": {"b": "abc"}},
            {"local_degree": {"b": 2.7}},
            {"marked_legs": {"b": "x"}},
            {"edge_map": [[["a", "b", "0"], ["x", "y"]], [["b", "c"], ["x", "y"]]]},
        ],
    )
    def test_morphism_integer_fields_are_checked(self, capsys, tmp_path, patch):
        doc = json.loads((FIXTURES / "path_onto_edge.morphism").read_text(encoding="utf-8"))
        path = tmp_path / "f.morphism"
        path.write_text(json.dumps({**doc, **patch}), encoding="utf-8")
        code, report = run_json(capsys, "harmonic-check", "--morphism", str(path))
        assert code == 2
        assert report["error"] == "invalid-input"

    BANANA_IDENTITY = {
        "source": "banana(1)",
        "target": "banana(1)",
        "vertex_map": {"v0": "v0", "v1": "v1"},
        "edge_map": [[["v0", "v1", 0], ["v0", "v1", 0]], [["v0", "v1", 1], ["v0", "v1", 1]]],
    }

    @pytest.mark.parametrize("field", ["local_degree", "marked_legs"])
    @pytest.mark.parametrize("value", [[], False, 0, ""], ids=["[]", "false", "0", '""'])
    def test_falsy_wrong_type_is_not_an_empty_map(self, capsys, tmp_path, field, value):
        # only an absent field takes the default; a falsy array, boolean,
        # number or string is as wrong a type as a non-empty one
        path = tmp_path / "f.morphism"
        path.write_text(json.dumps({**self.BANANA_IDENTITY, field: value}), encoding="utf-8")
        code, report = run_json(capsys, "harmonic-check", "--morphism", str(path))
        assert code == 2
        assert report["error"] == "invalid-input"

    def test_null_field_takes_the_default(self, capsys, tmp_path):
        # the identity is harmonic, so only the field values above fail it
        path = tmp_path / "f.morphism"
        doc = {**self.BANANA_IDENTITY, "local_degree": None, "marked_legs": None}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, report = run_json(capsys, "harmonic-check", "--morphism", str(path))
        assert code == 0
        assert report["harmonic"] is True

    MORPHISM = json.loads((FIXTURES / "path_onto_edge.morphism").read_text(encoding="utf-8"))
    PUSHFORWARD = ("pushforward", "--graph", "banana(2)", "--divisor", "{div}", "--contract")
    MALFORMED = {
        "contract-file-missing": (PUSHFORWARD + ("{doc}",), None),
        "contract-entry-not-a-pair": (PUSHFORWARD + ("[5]",), None),
        "graph-edges-not-an-array": (
            ("genus", "--graph", "{doc}"),
            {"name": "g", "vertices": ["a", "b"], "edges": 5},
        ),
        "graph-vertices-a-string": (
            ("genus", "--graph", "{doc}"),
            {"name": "g", "vertices": "ab", "edges": [["a", "b"]]},
        ),
        "graph-vertex-names-integers": (
            ("genus", "--graph", "{doc}"),
            {"name": "g", "vertices": [1, 2], "edges": [[1, 2]]},
        ),
        "graph-vertex-name-an-array": (
            ("genus", "--graph", "{doc}"),
            {"name": "g", "vertices": [["a"], "b"], "edges": [[["a"], "b"]]},
        ),
        "graph-edge-endpoints-integers": (
            ("genus", "--graph", "{doc}"),
            {"name": "g", "vertices": ["1", "2"], "edges": [[1, 2]]},
        ),
        "graph-name-an-integer": (
            ("genus", "--graph", "{doc}"),
            {"name": 5, "vertices": ["a", "b"], "edges": [["a", "b"]]},
        ),
        "vertex-map-an-array": (
            ("harmonic-check", "--morphism", "{doc}"),
            {**MORPHISM, "vertex_map": ["x", "y", "x"]},
        ),
        "local-degree-an-array": (
            ("harmonic-check", "--morphism", "{doc}"),
            {**MORPHISM, "local_degree": [1, 2, 1]},
        ),
        "edge-ref-not-a-pair": (
            ("harmonic-check", "--morphism", "{doc}"),
            {**MORPHISM, "edge_map": [[5, ["v0", "v1"]]]},
        ),
        "edge-ref-endpoint-an-array": (
            ("harmonic-check", "--morphism", "{doc}"),
            {**MORPHISM, "edge_map": [[[["a"], "b"], ["x", "y"]]]},
        ),
        "vertex-image-an-array": (
            ("harmonic-check", "--morphism", "{doc}"),
            {**MORPHISM, "vertex_map": {"a": ["x"], "b": "y", "c": "x"}},
        ),
        "graph-vertex-names-repeated": (
            ("genus", "--graph", "{doc}"),
            {"name": "g", "vertices": ["a", "b", "a"], "edges": [["a", "b"]]},
        ),
        "graph-edge-spec-too-long": (
            ("genus", "--graph", "{doc}"),
            {"name": "g", "vertices": ["a", "b"], "edges": [["a", "b", 1, 1]]},
        ),
        "graph-without-vertices": (
            ("genus", "--graph", "{doc}"),
            {"name": "g", "edges": [["a", "b"]]},
        ),
        "edge-map-entry-not-a-pair": (
            ("harmonic-check", "--morphism", "{doc}"),
            {**MORPHISM, "edge_map": [[["a", "b"], ["x", "y"], ["b", "c"]]]},
        ),
        "source-edge-mapped-twice": (
            ("harmonic-check", "--morphism", "{doc}"),
            {**MORPHISM, "edge_map": [[["a", "b"], ["x", "y"]], [["b", "a"], ["x", "y"]]]},
        ),
        "edge-map-missing": (
            ("harmonic-check", "--morphism", "{doc}"),
            {k: v for k, v in MORPHISM.items() if k != "edge_map"},
        ),
    }

    @pytest.mark.parametrize("argv,doc", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_document_is_invalid_input(self, capsys, tmp_path, argv, doc):
        # doc None leaves {doc} an unreadable path
        path, divisor = tmp_path / "doc.json", tmp_path / "d.div"
        if doc is not None:
            path.write_text(json.dumps(doc), encoding="utf-8")
        divisor.write_text("{}", encoding="utf-8")
        code = main([a.format(doc=path, div=divisor) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"] == "invalid-input"
        assert captured.err == ""

    UNKNOWN = {
        "graph-edge-from-an-undeclared-vertex": (
            ("genus", "--graph", "{doc}"),
            {"name": "g", "vertices": ["a", "b"], "edges": [["z", "b"]]},
        ),
        "vertex-map-misses-a-vertex": (
            ("harmonic-check", "--morphism", "{doc}"),
            {**MORPHISM, "vertex_map": {"a": "x", "b": "y"}},
        ),
    }

    @pytest.mark.parametrize("argv,doc", UNKNOWN.values(), ids=UNKNOWN.keys())
    def test_undeclared_vertex_is_unknown_vertex(self, capsys, tmp_path, argv, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, report = run_json(capsys, *(a.format(doc=path) for a in argv))
        assert code == 2 and report["error"] == "unknown-vertex"

    def test_loop_edge_reason(self, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text(
            json.dumps({"name": "bad", "vertices": ["a"], "edges": [["a", "a"]]}),
            encoding="utf-8",
        )
        code, report = run_json(capsys, "genus", "--graph", str(bad))
        assert code == 2 and report["error"] == "loop-edge"

    @pytest.mark.parametrize(
        "argv",
        [
            ("rho", "--g", "4", "--d", "3", "--r", "1"),
            ("bound-compare", "--g", "6", "--d", "4", "--r", "1"),
            ("search", "--graph", "theta(2,2,2)", "--d", "3", "--r", "1"),
            ("trees", "--graph", "random(5,8,7)"),
        ],
    )
    def test_output_byte_stable(self, capsys, argv):
        code1, out1 = run(capsys, *argv)
        code2, out2 = run(capsys, *argv)
        assert code1 == code2
        assert out1 == out2

    def test_parser_reused_after_usage_errors(self, capsys):
        argv = ("search", "--graph", "theta(2,2,2)", "--d", "3", "--r", "1")
        code1, out1 = run(capsys, *argv)
        assert main(["no-such-command"]) == 1
        assert main(["search", "--graph", "theta(2,2,2)", "--r", "1"]) == 1
        code2, out2 = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestHugeIntegers:
    """bound(1600, 1600, 1) = 1600!/2 has 4,466 digits, above the default
    int-to-str limit (4,300) of the interpreters that have one."""

    BOUND = math.factorial(1600) // 2
    LEGACY = math.factorial(4801) * 1600**4801
    CASES = {
        "bound": (("bound", "--g", "1600", "--d", "1600", "--r", "1"),
                  {"theorem_bound": BOUND}),
        "bound-compare": (("bound-compare", "--g", "1600", "--d", "1600", "--r", "1"),
                          {"theorem_bound": BOUND, "legacy_bound": LEGACY}),
        "bound-legacy": (("bound-legacy", "--n", "2", "--m", "1601", "--d", "1600", "--r", "1"),
                         {"legacy_bound": LEGACY}),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_exact_digits_or_typed_error(self, capsys, command):
        argv, expected = self.CASES[command]
        code, report = run_json(capsys, *argv)
        try:
            for value in expected.values():
                str(value)
        except ValueError:
            assert code == 2
            assert report["error"] == "integer-too-large"
        else:
            assert code == 0
            assert {key: report[key] for key in expected} == expected

    BIG = "9" * 5000
    INPUTS = {
        "divisor-file": (("rank", "--graph", "banana(2)", "--divisor", "{doc}"),
                         f'{{"v0": {BIG}}}'),
        "inline-contract": (("pushforward", "--graph", "banana(2)", "--divisor", "{doc}",
                             "--contract", f'[["v0", {BIG}]]'), "{}"),
        "batch-record": (("batch", "--config", str(FIXTURES / "batch_small.json"),
                          "--out", "{doc}"), f'{{"key": {BIG}}}\n'),
    }

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
    )
    @pytest.mark.parametrize("argv,text", INPUTS.values(), ids=INPUTS.keys())
    def test_integer_literal_past_digit_limit_in_input(self, capsys, tmp_path, argv, text):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code = main([a.format(doc=path) for a in argv])
        finally:
            sys.set_int_max_str_digits(old)
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"] == "integer-too-large"
        assert captured.err == ""
        assert path.read_text(encoding="utf-8") == text

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
    )
    def test_exact_digits_with_limit_lifted(self, capsys):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, report = run_json(capsys, *self.CASES["bound"][0])
        finally:
            sys.set_int_max_str_digits(old)
        assert code == 0
        assert report["theorem_bound"] == self.BOUND

    # legacy_bound(2, 15, 28, 14) is a factorial of 458,767 with millions
    # of digits: seconds to compute, and never printable under a limit
    HOPELESS = {
        "bound-compare": ("bound-compare", "--g", "14", "--d", "28", "--r", "14"),
        "bound-legacy": ("bound-legacy", "--n", "2", "--m", "15", "--d", "28", "--r", "14"),
    }

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
    )
    @pytest.mark.parametrize("argv", HOPELESS.values(), ids=HOPELESS.keys())
    def test_unprintable_legacy_bound_is_refused_before_the_factorial(
        self, capsys, monkeypatch, argv
    ):
        def small_factorial(n):
            assert n < 10_000, "the legacy factorial was taken"
            return math.factorial(n)

        monkeypatch.setattr(divgraph.brill_noether, "factorial", small_factorial)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code = main(list(argv))
        finally:
            sys.set_int_max_str_digits(old)
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"] == "integer-too-large"
        assert captured.err == ""

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
    )
    def test_huge_power_is_refused_before_it_is_built(self, capsys, monkeypatch):
        # the digit estimate builds n^r, 20 MB and tens of seconds at
        # r = 10^8; n^r >= 2^r alone already exceeds the limit
        def refuse(*args):
            raise AssertionError("the digit estimate built n^r")

        monkeypatch.setattr(divgraph.cli, "legacy_bound_min_digits", refuse)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, report = run_json(
                capsys, "bound-legacy", "--n", "3", "--m", "1", "--d", "1", "--r", str(10**8)
            )
        finally:
            sys.set_int_max_str_digits(old)
        assert code == 2 and report["error"] == "integer-too-large"

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
    )
    def test_legacy_bound_at_the_digit_limit(self, capsys):
        # 306! * 3^306 has 776 digits: printed at a limit of 776, refused
        # (by the JSON encoder) at 775
        argv = ("bound-legacy", "--n", "2", "--m", "300", "--d", "3", "--r", "1")
        value = math.factorial(306) * 3**306
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            digits = len(str(value))
            sys.set_int_max_str_digits(digits)
            fits = run(capsys, *argv)
            sys.set_int_max_str_digits(digits - 1)
            code, report = run_json(capsys, *argv)
            sys.set_int_max_str_digits(0)
            expected = json.dumps(
                {"n": 2, "m": 300, "d": 3, "r": 1, "legacy_bound": value}, indent=2
            )
        finally:
            sys.set_int_max_str_digits(old)
        assert digits == 776
        assert fits == (0, expected + "\n")
        assert code == 2 and report["error"] == "integer-too-large"

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
    )
    def test_legacy_bound_with_limit_lifted(self, capsys):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, out = run(capsys, *self.CASES["bound-legacy"][0])
            expected = json.dumps(
                {"n": 2, "m": 1601, "d": 1600, "r": 1, "legacy_bound": self.LEGACY}, indent=2
            )
        finally:
            sys.set_int_max_str_digits(old)
        assert code == 0
        assert out == expected + "\n"


class TestDeepNesting:
    """JSON nested past the recursion limit is invalid input, wherever it
    is read."""

    NESTED = "[" * 100_000
    INPUTS = {
        "graph-file": (("genus", "--graph", "{doc}"), NESTED),
        "divisor-file": (("rank", "--graph", "banana(2)", "--divisor", "{doc}"), NESTED),
        "batch-config": (("batch", "--config", "{doc}", "--out", "{out}"), NESTED),
        "batch-record": (("batch", "--config", str(FIXTURES / "batch_small.json"),
                          "--out", "{doc}"), NESTED + "\n"),
        "inline-contract": (("pushforward", "--graph", "banana(2)", "--divisor", "{doc}",
                             "--contract", NESTED), "{}"),
    }

    @pytest.mark.parametrize("argv,text", INPUTS.values(), ids=INPUTS.keys())
    def test_nested_json_is_invalid_input(self, capsys, tmp_path, argv, text):
        path, out = tmp_path / "doc.json", tmp_path / "out.jsonl"
        path.write_text(text, encoding="utf-8")
        code = main([a.format(doc=path, out=out) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"] == "invalid-input"
        assert captured.err == ""
        assert path.read_text(encoding="utf-8") == text
        assert not out.exists()
