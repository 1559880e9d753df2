"""Harmonic morphisms: validity, Riemann-Hurwitz, pullback, contraction."""

import random
import re

import pytest

from divgraph import (
    Divisor,
    EndpointMismatchError,
    InvalidInputError,
    LoopEdgeError,
    NotHarmonicError,
    UnknownVertexError,
    build_graph,
    build_morphism,
    check_harmonic,
    contract,
    genus,
    identity_morphism,
    pullback,
    pushforward_contraction,
    refine,
    riemann_hurwitz_check,
)
from divgraph.families import banana, cycle, theta

from conftest import CORPUS


@pytest.fixture(scope="module")
def path_onto_edge():
    source = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    target = build_graph(["x", "y"], [("x", "y")])
    return build_morphism(
        source,
        target,
        {"a": "x", "b": "y", "c": "x"},
        [(("a", "b"), ("x", "y")), (("b", "c"), ("x", "y"))],
        {"b": 2},
    )


@pytest.fixture(scope="module")
def c4_double_cover():
    """The alternating unramified double cover of the doubled edge."""
    source, target = cycle(4), banana(1)
    return build_morphism(
        source,
        target,
        {"v0": "v0", "v1": "v1", "v2": "v0", "v3": "v1"},
        [
            (("v0", "v1"), ("v0", "v1", 0)),
            (("v1", "v2"), ("v0", "v1", 1)),
            (("v2", "v3"), ("v0", "v1", 0)),
            (("v3", "v0"), ("v0", "v1", 1)),
        ],
    )


class TestCheckHarmonic:
    @pytest.mark.parametrize("name,graph", CORPUS[:8])
    def test_identity_is_harmonic_degree_one(self, name, graph):
        report = check_harmonic(identity_morphism(graph))
        assert report.harmonic and report.degree == 1

    def test_path_onto_edge(self, path_onto_edge):
        report = check_harmonic(path_onto_edge)
        assert report.harmonic and report.degree == 2

    def test_wrong_local_degree_flagged(self):
        source = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        target = build_graph(["x", "y"], [("x", "y")])
        f = build_morphism(
            source,
            target,
            {"a": "x", "b": "y", "c": "x"},
            [(("a", "b"), ("x", "y")), (("b", "c"), ("x", "y"))],
        )
        report = check_harmonic(f)
        assert not report.harmonic
        locals_ = [v for v in report.violations if v["kind"] == "local"]
        assert locals_ == [
            {
                "kind": "local",
                "vertex": "b",
                "target_edge": ["x", "y", 0],
                "count": 2,
                "expected": 1,
            }
        ]
        degrees = [v for v in report.violations if v["kind"] == "degree"]
        assert {(v["target_vertex"], v["fiber_sum"]) for v in degrees} == {("x", 2), ("y", 1)}

    def test_double_cover(self, c4_double_cover):
        report = check_harmonic(c4_double_cover)
        assert report.harmonic and report.degree == 2

    def test_endpoint_mismatch_rejected(self):
        source = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        target = build_graph(["x", "y"], [("x", "y")])
        message = "edge (a,b) maps to (x,y) but its endpoints map to ['x']"
        with pytest.raises(EndpointMismatchError, match=re.escape(message)):
            build_morphism(
                source,
                target,
                {"a": "x", "b": "x", "c": "y"},  # edge (a,b) maps onto a single vertex
                [(("a", "b"), ("x", "y")), (("b", "c"), ("x", "y"))],
            )

    def test_unmapped_edge_rejected(self):
        source = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        target = build_graph(["x", "y"], [("x", "y")])
        with pytest.raises(InvalidInputError):
            build_morphism(
                source,
                target,
                {"a": "x", "b": "y", "c": "x"},
                [(("a", "b"), ("x", "y"))],
            )


class TestRiemannHurwitz:
    def test_path_onto_edge_ledger(self, path_onto_edge):
        report = riemann_hurwitz_check(path_onto_edge)
        assert report.lhs == -2
        assert report.rhs == 2 * (-2) + 2 * (2 - 1) == -2
        assert report.degree == 2 and report.ramification == 2
        assert report.balanced

    def test_double_cover_unramified(self, c4_double_cover):
        report = riemann_hurwitz_check(c4_double_cover)
        assert (report.lhs, report.rhs) == (0, 0)
        assert report.ramification == 0
        assert report.balanced

    @pytest.mark.parametrize("name,graph", CORPUS[:8])
    def test_identity_balances(self, name, graph):
        report = riemann_hurwitz_check(identity_morphism(graph))
        assert report.balanced
        assert report.lhs == 2 * genus(graph) - 2

    def test_not_harmonic_raises(self):
        source = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        target = build_graph(["x", "y"], [("x", "y")])
        f = build_morphism(
            source,
            target,
            {"a": "x", "b": "y", "c": "x"},
            [(("a", "b"), ("x", "y")), (("b", "c"), ("x", "y"))],
        )
        with pytest.raises(NotHarmonicError):
            riemann_hurwitz_check(f)
        with pytest.raises(NotHarmonicError):
            pullback(f, Divisor.zero(target))

    def test_marked_legs_reported_but_excluded(self):
        # leg marks never change either side of the identity
        source = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        target = build_graph(["x", "y"], [("x", "y")])
        f = build_morphism(
            source,
            target,
            {"a": "x", "b": "y", "c": "x"},
            [(("a", "b"), ("x", "y")), (("b", "c"), ("x", "y"))],
            {"b": 2},
            marked_legs={"a": 1, "c": 1},
        )
        report = riemann_hurwitz_check(f)
        assert report.marked_legs == (("a", 1), ("c", 1))
        assert (report.lhs, report.rhs) == (-2, -2)


class TestPullback:
    def test_zero(self, path_onto_edge):
        zero = Divisor.zero(path_onto_edge.target)
        assert pullback(path_onto_edge, zero) == Divisor.zero(path_onto_edge.source)

    def test_ramified_point(self, path_onto_edge):
        pulled = pullback(path_onto_edge, Divisor.from_map(path_onto_edge.target, {"y": 1}))
        assert pulled.to_map() == {"b": 2}
        assert pulled.degree == 2

    def test_double_cover_fiber(self, c4_double_cover):
        pulled = pullback(c4_double_cover, Divisor.from_map(c4_double_cover.target, {"v0": 1}))
        assert pulled.to_map() == {"v0": 1, "v2": 1}

    def test_degree_multiplicativity_random(self, path_onto_edge, c4_double_cover):
        rng = random.Random(37)
        for f in (path_onto_edge, c4_double_cover):
            deg_f = check_harmonic(f).degree
            for _ in range(100):
                d = Divisor(f.target, tuple(rng.randint(-3, 3) for _ in f.target.vertices))
                assert pullback(f, d).degree == deg_f * d.degree

    def test_additive(self, c4_double_cover):
        f = c4_double_cover
        a = Divisor.from_map(f.target, {"v0": 2, "v1": -1})
        b = Divisor.from_map(f.target, {"v1": 3})
        assert pullback(f, a + b) == pullback(f, a) + pullback(f, b)


class TestContraction:
    def test_identity_like(self, theta222):
        pi = contract(theta222, [])
        assert pi.target == theta222
        d = Divisor(theta222, (1, -2, 4))
        assert pushforward_contraction(pi, d) == d

    def test_cycle_back_to_banana(self):
        square, _ = refine(banana(1), 1)
        mid0, mid1 = square.vertices[2], square.vertices[3]
        pi = contract(square, [("v0", mid0), ("v1", mid1)])
        assert pi.target.vertices == ("v0", "v1")
        assert pi.target.multiplicity("v0", "v1") == 2
        pushed = pushforward_contraction(pi, Divisor.from_map(square, {"v0": 1, mid1: 1}))
        assert pushed.to_map() == {"v0": 1, "v1": 1}
        pushed2 = pushforward_contraction(pi, Divisor.from_map(square, {"v0": 1, mid0: 1}))
        assert pushed2.to_map() == {"v0": 2}

    def test_zero(self, theta222):
        pi = contract(theta222, [("v0", "v1")])
        assert pushforward_contraction(pi, Divisor.zero(theta222)) == Divisor.zero(pi.target)

    def test_preserves_degree_and_additive(self):
        square, _ = refine(banana(2), 2)
        pairs = [("v0", square.vertices[2])]
        pi = contract(square, pairs)
        rng = random.Random(41)
        for _ in range(20):
            a = Divisor(square, tuple(rng.randint(-2, 2) for _ in square.vertices))
            b = Divisor(square, tuple(rng.randint(-2, 2) for _ in square.vertices))
            assert pushforward_contraction(pi, a).degree == a.degree
            assert pushforward_contraction(pi, a + b) == pushforward_contraction(
                pi, a
            ) + pushforward_contraction(pi, b)

    def test_genus_drop_on_bond_contraction(self, theta222):
        # contracting a doubled bond of the doubled triangle removes both
        # parallel edges and one vertex: genus falls by 1
        pi = contract(theta222, [("v0", "v1")])
        assert genus(pi.target) == genus(theta222) - 1

    def test_loop_creation_rejected(self):
        tri = cycle(3)
        with pytest.raises(LoopEdgeError):
            contract(tri, [("v0", "v1"), ("v1", "v2")])

    def test_pair_without_a_bond_rejected(self):
        with pytest.raises(UnknownVertexError, match="no edge bond"):
            contract(cycle(4), [("v0", "v2")])
